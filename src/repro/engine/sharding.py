"""Shard-plan arithmetic and the shard-spec builder registry.

The shard count is part of an experiment's identity — changing it changes
which random stream generates which unit — while the *worker* count is
pure execution detail.  Keeping the two separate is what makes
``workers=1`` and ``workers=N`` byte-identical.

This module also defines :class:`ShardSpec` — the compact description of
"which builder, with which constructor arguments" that spec dispatch
ships to pool workers *instead of* builder instances or materialized
record lists.  A spec is a registry name plus a frozen kwargs tuple:
tens of bytes on the wire regardless of dataset size, hashable (so
workers can memoize what they derive from it), and reconstructible on
the other side via :func:`make_builder`.  Every shardable builder
(AllNames / PublicCdn / Cdn / RootTrace) is addressable by name; the
registry stores import paths, not classes, so specs never drag module
graphs through pickle and the engine never imports a builder it does
not use.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Default shard count for every sharded command.  Fixed independently of
#: the worker count so results do not depend on the machine they ran on.
DEFAULT_SHARDS = 8


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, near-even ``[lo, hi)`` index ranges covering ``total``.

    The first ``total % shards`` shards get one extra unit, so the split
    is deterministic and as balanced as possible.
    """
    if shards <= 0:
        raise ValueError("shards must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    base, extra = divmod(total, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def stable_bucket(key: str, shards: int) -> int:
    """Map a string key to a shard index, stable across processes.

    Used to partition replay traces by query name so that every cache key
    lands wholly inside one shard (both the plain and the ECS cache key
    start with the qname).
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def partition_by_key(items: Sequence[T], shards: int,
                     key_of: Callable[[T], str]) -> List[List[T]]:
    """Split ``items`` into ``shards`` buckets by ``stable_bucket(key)``.

    Relative order inside each bucket follows the input order, so a
    time-sorted trace yields time-sorted buckets.
    """
    buckets: List[List[T]] = [[] for _ in range(shards)]
    for item in items:
        buckets[stable_bucket(key_of(item), shards)].append(item)
    return buckets


# ---------------------------------------------------------------------------
# The shard-spec builder registry.

#: Registry name -> ``"module:attr"`` import path of the builder class.
#: Names match the CLI's dataset vocabulary where one exists.
BUILDER_REGISTRY: Dict[str, str] = {
    "allnames": "repro.datasets.allnames:AllNamesBuilder",
    "public-cdn": "repro.datasets.public_cdn:PublicCdnBuilder",
    "cdn": "repro.datasets.cdn_dataset:CdnDatasetBuilder",
    "root-trace": "repro.datasets.ditl:RootTraceBuilder",
}


def register_builder(name: str, import_path: str) -> None:
    """Add (or repoint) a builder under ``name``.

    ``import_path`` is ``"package.module:Attr"``.  Tests register
    synthetic builders this way; re-registering an existing name is an
    error unless the path is identical, so two subsystems can never
    silently fight over a spec name.
    """
    if ":" not in import_path:
        raise ValueError(f"import path {import_path!r} must be "
                         f"'module:attr'")
    existing = BUILDER_REGISTRY.get(name)
    if existing is not None and existing != import_path:
        raise ValueError(f"builder {name!r} already registered "
                         f"as {existing!r}")
    BUILDER_REGISTRY[name] = import_path


def resolve_builder(name: str) -> Callable[..., Any]:
    """The builder class registered under ``name`` (imported on demand)."""
    try:
        import_path = BUILDER_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown builder {name!r}; registered: "
                       f"{sorted(BUILDER_REGISTRY)}") from None
    module_name, _, attr = import_path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


@dataclass(frozen=True)
class ShardSpec:
    """A builder, by name and constructor kwargs — the dispatch currency.

    Frozen and built on tuples so instances hash (worker-side caches key
    on them) and pickle to a few dozen bytes.  ``shard_count`` rides
    along because it is part of the experiment's identity: the same
    builder sharded 8 ways and 16 ways are different experiments.
    """

    builder: str
    kwargs: Tuple[Tuple[str, Any], ...]
    shard_count: int = DEFAULT_SHARDS

    @classmethod
    def create(cls, builder: str, shard_count: int = DEFAULT_SHARDS,
               **kwargs: Any) -> "ShardSpec":
        """Spec from keyword arguments (sorted for a canonical form)."""
        if builder not in BUILDER_REGISTRY:
            raise KeyError(f"unknown builder {builder!r}; registered: "
                           f"{sorted(BUILDER_REGISTRY)}")
        if shard_count <= 0:
            raise ValueError("shard_count must be >= 1")
        return cls(builder, tuple(sorted(kwargs.items())), shard_count)

    def make_builder(self) -> Any:
        """Reconstruct the builder instance this spec describes."""
        return resolve_builder(self.builder)(**dict(self.kwargs))
