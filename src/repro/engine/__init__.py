"""``repro.engine`` — sharded parallel experiment execution.

The engine splits dataset generation and trace replay into a fixed
number of *shards*, each seeded deterministically from the root seed and
the shard index (:func:`derive_seed`), and executes them inline or on a
process pool.  Because shard inputs never depend on the worker count and
shard outputs merge in shard order, ``workers=1`` and ``workers=N``
produce byte-identical merged output — the contract the determinism test
suite enforces.

Dependency-light symbols (seeding, sharding math, the executor) import
eagerly; the generation/replay glue loads lazily via PEP 562 so dataset
builders can import :mod:`repro.engine.seeding` without creating an
import cycle through :mod:`repro.analysis`.
"""

from __future__ import annotations

from typing import Any

from .executor import EngineReport, ShardStats, run_sharded
from .pool import (PoolError, PoolShutdownError, ShardDispatchError,
                   WorkerCrashError, WorkerPool)
from .seeding import WORLD_SHARD, derive_seed, world_seed
from .sharding import (BUILDER_REGISTRY, DEFAULT_SHARDS, ShardSpec,
                       partition_by_key, register_builder, resolve_builder,
                       shard_bounds, stable_bucket)

__all__ = [
    "BUILDER_REGISTRY", "DEFAULT_SHARDS", "EngineReport", "PoolError",
    "PoolShutdownError", "ShardDispatchError", "ShardSpec", "ShardStats",
    "WORLD_SHARD", "WorkerCrashError", "WorkerPool", "client_sweep_sharded",
    "derive_seed", "fig1_sharded", "generate_columnar", "generate_jsonl",
    "partition_by_key", "register_builder", "replay_columnar_sharded",
    "replay_jsonl_sharded", "resolve_builder", "run_sharded", "shard_bounds",
    "stable_bucket", "world_seed",
]

_LAZY = {
    "client_sweep_sharded": "replay",
    "fig1_sharded": "replay",
    "generate_columnar": "generate",
    "generate_jsonl": "generate",
    "replay_columnar_sharded": "replay",
    "replay_jsonl_sharded": "replay",
}


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
