"""Deterministic fault injection, retry policies, and chaos scenarios.

The paper's measurements ride on a flaky real Internet; this package
lets the reproduction express that flakiness on purpose.  Three layers:

* :mod:`~repro.faults.injectors` / :mod:`~repro.faults.plan` — composable
  fault sources (loss, bursts, jitter, truncation, error rcodes,
  ECS-stripping middleboxes, outages) bound to SHA-256-derived random
  streams and installed on the simulated network;
* :mod:`~repro.faults.retry` — the one :class:`RetryPolicy` ladder every
  query site shares, including the RFC 7871 §7.1 "retry without ECS on
  FORMERR" downgrade;
* :mod:`~repro.faults.chaos` — sharded scan campaigns under a plan,
  merged by the engine so results are bit-identical at any worker count.

The chaos runner pulls in the dataset builders, so it loads lazily;
everything else imports eagerly and dependency-light.
"""

from __future__ import annotations

from typing import Any

from .injectors import (BOTH, QUERY, RESPONSE, BoundInjector, BurstLossSpec,
                        EcsStripSpec, FaultSpec, LatencyJitterSpec,
                        LatencySpikeSpec, OutageSpec, PacketLossSpec,
                        RcodeFaultSpec, TruncationSpec)
from .plan import BoundPlan, FaultPlan
from .presets import PRESETS, preset, preset_names
from .retry import (QueryFactory, RetryOutcome, RetryPolicy,
                    backoff_delay_ms, backoff_jitter, execute_with_retries)

__all__ = [
    "BOTH", "BoundInjector", "BoundPlan", "BurstLossSpec",
    "CHAOS_RETRY_POLICY", "ChaosPartial", "ChaosResult", "EcsStripSpec",
    "FaultPlan", "FaultSpec", "LatencyJitterSpec", "LatencySpikeSpec",
    "OutageSpec", "PRESETS", "PacketLossSpec", "QUERY", "QueryFactory",
    "RESPONSE", "RcodeFaultSpec", "RetryOutcome", "RetryPolicy",
    "TruncationSpec", "backoff_delay_ms", "backoff_jitter",
    "execute_with_retries", "preset", "preset_names", "run_chaos",
]

_LAZY = {
    "CHAOS_RETRY_POLICY": "chaos",
    "ChaosPartial": "chaos",
    "ChaosResult": "chaos",
    "run_chaos": "chaos",
}


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{submodule}", __name__)
    return getattr(module, name)
