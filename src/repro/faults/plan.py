"""Fault plans: a named, composable, seedable bundle of injectors.

A :class:`FaultPlan` is pure description — frozen, picklable, hashable —
and :meth:`FaultPlan.bind` is where determinism is anchored: every
injector gets its own :class:`random.Random` stream derived through the
engine's SHA-256 seeding from ``(fault_seed, shard_index, plan name,
injector position)``.  Two consequences:

* the same plan + fault seed replays bit-identically, at any worker
  count, because each shard binds its own streams from its own index;
* injectors never share a stream, so adding one to a plan cannot
  perturb the faults another injects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dnslib import Message
from ..engine.seeding import derive_seed
from ..net.transport import FaultAction
from .injectors import BoundInjector, FaultSpec


@dataclass(frozen=True)
class FaultPlan:
    """An ordered composition of injector specs under one scenario name."""

    name: str = "custom"
    injectors: Tuple[FaultSpec, ...] = ()

    def bind(self, fault_seed: int, shard_index: int = 0) -> "BoundPlan":
        """Bind every injector to its derived random stream."""
        bound: List[BoundInjector] = []
        for index, spec in enumerate(self.injectors):
            stream = random.Random(derive_seed(
                fault_seed, shard_index,
                f"faults:{self.name}:{index}:{spec.kind}"))
            bound.append(spec.bind(stream))
        return BoundPlan(self.name, tuple(bound))

    def describe(self) -> str:
        """Human-readable injector catalog for reports and --help."""
        if not self.injectors:
            return f"{self.name}: no injectors (clean network)"
        lines = [f"{self.name}:"]
        lines.extend(f"  - {spec!r}" for spec in self.injectors)
        return "\n".join(lines)


class BoundPlan:
    """A plan bound to its streams; the installable network hook.

    Implements :class:`~repro.net.transport.FaultInjector` by folding the
    injectors' individual actions into one: extra latencies add up, a
    replacement message is seen by the injectors after it, the first
    error rcode wins, and a drop short-circuits (a dropped datagram never
    reaches later injectors).  ``injected`` tallies actions per kind —
    deterministic and independent of the obs layer, so chaos shards can
    report fault mixes without an active registry.
    """

    def __init__(self, name: str,
                 injectors: Tuple[BoundInjector, ...]) -> None:
        self.name = name
        self.injectors = injectors
        self.injected: Dict[str, int] = {}

    def _compose(self, hook: str, src_ip: str, dst_ip: str,
                 message: Message, tcp: bool,
                 now: float) -> Optional[FaultAction]:
        kinds: List[str] = []
        extra_ms = 0.0
        truncate = False
        rcode = None
        replace = None
        drop = False
        current = message
        for injector in self.injectors:
            action = getattr(injector, hook)(src_ip, dst_ip, current, tcp,
                                             now)
            if action is None:
                continue
            kinds.append(action.kind)
            self.injected[action.kind] = \
                self.injected.get(action.kind, 0) + 1
            extra_ms += action.extra_one_way_ms
            if action.replace is not None:
                current = action.replace
                replace = current
            if action.truncate:
                truncate = True
            if action.rcode is not None and rcode is None:
                rcode = action.rcode
            if action.drop:
                drop = True
                break
        if not kinds:
            return None
        return FaultAction(kind="+".join(kinds), drop=drop,
                           extra_one_way_ms=extra_ms, rcode=rcode,
                           truncate=truncate, replace=replace)

    def on_query(self, src_ip: str, dst_ip: str, message: Message,
                 tcp: bool, now: float) -> Optional[FaultAction]:
        return self._compose("on_query", src_ip, dst_ip, message, tcp, now)

    def on_response(self, src_ip: str, dst_ip: str, response: Message,
                    tcp: bool, now: float) -> Optional[FaultAction]:
        return self._compose("on_response", src_ip, dst_ip, response, tcp,
                             now)
