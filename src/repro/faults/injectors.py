"""Fault-injector specs: the vocabulary a :class:`~repro.faults.FaultPlan`
composes.

Each spec is a small frozen (hence picklable — chaos shards cross process
boundaries) dataclass describing one fault source: Bernoulli packet loss,
Gilbert–Elliott burst loss, latency jitter and spikes, forced truncation,
error rcodes on ECS-bearing queries, ECS-stripping middleboxes, and
scheduled outages.  A spec names the legs it acts on (``direction``) and
makes its decision for one datagram in :meth:`FaultSpec.fault`.
``spec.bind(rng)`` pairs it with its own :class:`random.Random` stream in a
:class:`BoundInjector`; the plan derives one stream per injector from the
engine's SHA-256 seeding, so the same plan + seed replays the same faults
at any worker count.

A bound injector implements the :class:`~repro.net.transport.FaultInjector`
hook pair and consults its spec **only for datagrams matching its ``dst``
and direction**, which keeps each injector's stream independent of unrelated
traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from ..dnslib import Message, Rcode
from ..net.transport import FaultAction

#: Direction filters: faults can hit the query leg, the response leg, or both.
QUERY = "query"
RESPONSE = "response"
BOTH = "both"

#: Per-link state a bound injector carries between datagrams: whether the
#: (src, dst) link's Gilbert–Elliott chain is in its burst state.
LinkState = Dict[Tuple[str, str], bool]


class FaultSpec:
    """Base of every injector spec.

    A spec carries a ``kind`` label, a ``dst`` filter (``None``: every
    destination), the ``direction`` it acts on (the query leg unless a
    spec says otherwise; the loss specs take it as a field), and
    :meth:`fault`, the decision for one datagram that passed both
    filters.
    """

    kind: ClassVar[str]
    direction: ClassVar[str] = QUERY
    dst: Optional[str]

    def bind(self, rng: random.Random) -> "BoundInjector":
        """Attach the spec to its private random stream."""
        return BoundInjector(self, rng)

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        """The action for one matching datagram, or ``None`` for none."""
        raise NotImplementedError


class BoundInjector:
    """A spec bound to its random stream: the installable hook pair.

    Applies the spec's ``dst`` and direction filters, so the spec draws from
    ``rng`` only for datagrams it acts on, and holds the per-link state of
    a burst chain.
    """

    __slots__ = ("spec", "rng", "_burst", "_dst", "_on_query",
                 "_on_response", "_fault")

    def __init__(self, spec: FaultSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._burst: LinkState = {}
        self._dst = spec.dst
        self._on_query = spec.direction in (QUERY, BOTH)
        self._on_response = spec.direction in (RESPONSE, BOTH)
        self._fault = spec.fault

    def on_query(self, src_ip: str, dst_ip: str, message: Message,
                 tcp: bool, now: float) -> Optional[FaultAction]:
        if not self._on_query or (self._dst is not None
                                  and self._dst != dst_ip):
            return None
        return self._fault(self.rng, self._burst, src_ip, dst_ip, message,
                           tcp, now)

    def on_response(self, src_ip: str, dst_ip: str, response: Message,
                    tcp: bool, now: float) -> Optional[FaultAction]:
        if not self._on_response or (self._dst is not None
                                     and self._dst != dst_ip):
            return None
        return self._fault(self.rng, self._burst, src_ip, dst_ip, response,
                           tcp, now)


# -- packet loss -----------------------------------------------------------


@dataclass(frozen=True)
class PacketLossSpec(FaultSpec):
    """Independent (Bernoulli) per-datagram loss on matching links."""

    kind: ClassVar[str] = "loss"

    rate: float
    dst: Optional[str] = None
    direction: str = BOTH  # type: ignore[misc]

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if rng.random() < self.rate:
            return FaultAction(kind=self.kind, drop=True)
        return None


@dataclass(frozen=True)
class BurstLossSpec(FaultSpec):
    """Gilbert–Elliott two-state burst loss.

    Each (src, dst) link carries its own good/burst Markov chain: every
    matching datagram first advances the chain (``p_enter_burst`` /
    ``p_exit_burst`` transition probabilities), then drops with the loss
    rate of the state it landed in.  Models the correlated loss of a
    congested or flapping path, which independent Bernoulli loss cannot.
    """

    kind: ClassVar[str] = "burst-loss"

    p_enter_burst: float = 0.05
    p_exit_burst: float = 0.25
    loss_good: float = 0.0
    loss_burst: float = 0.9
    dst: Optional[str] = None
    direction: str = BOTH  # type: ignore[misc]

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        link = (src_ip, dst_ip)
        if state.get(link, False):
            in_burst = not (rng.random() < self.p_exit_burst)
        else:
            in_burst = rng.random() < self.p_enter_burst
        state[link] = in_burst
        rate = self.loss_burst if in_burst else self.loss_good
        if rate and rng.random() < rate:
            return FaultAction(kind=self.kind, drop=True)
        return None


# -- latency ---------------------------------------------------------------


@dataclass(frozen=True)
class LatencyJitterSpec(FaultSpec):
    """Uniform extra one-way latency in ``[0, max_extra_ms]`` per query.

    Touches every matching query datagram (the fault counter therefore
    counts matching traffic, not anomalies); applied to the forward leg,
    so both directions of the round trip stretch.
    """

    kind: ClassVar[str] = "jitter"

    max_extra_ms: float = 30.0
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        extra = rng.uniform(0.0, self.max_extra_ms)
        return FaultAction(kind=self.kind, extra_one_way_ms=extra)


@dataclass(frozen=True)
class LatencySpikeSpec(FaultSpec):
    """Occasional large latency spikes (bufferbloat, rerouting events)."""

    kind: ClassVar[str] = "spike"

    probability: float = 0.02
    extra_ms: float = 500.0
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if rng.random() < self.probability:
            return FaultAction(kind=self.kind, extra_one_way_ms=self.extra_ms)
        return None


# -- protocol mangling -----------------------------------------------------


@dataclass(frozen=True)
class TruncationSpec(FaultSpec):
    """Force TC=1 on UDP responses so clients must fall back to TCP."""

    kind: ClassVar[str] = "truncate"
    direction: ClassVar[str] = RESPONSE

    probability: float = 0.1
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if tcp or message.truncated:
            return None
        if rng.random() < self.probability:
            return FaultAction(kind=self.kind, truncate=True)
        return None


@dataclass(frozen=True)
class RcodeFaultSpec(FaultSpec):
    """Answer matching queries with an error rcode, server never consulted.

    With ``only_ecs`` (the default) the fault hits ECS-bearing queries
    only — the RFC 7871 §7.1 scenario where an authoritative (or a
    middlebox in front of it) chokes on the option and the client must
    retry without ECS.  The action's kind names the rcode
    (``rcode-formerr``).
    """

    kind: ClassVar[str] = "rcode"

    rcode: Rcode = Rcode.FORMERR
    probability: float = 1.0
    only_ecs: bool = True
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if self.only_ecs and message.ecs() is None:
            return None
        if rng.random() < self.probability:
            return FaultAction(kind=f"rcode-{self.rcode.name.lower()}",
                               rcode=self.rcode)
        return None


@dataclass(frozen=True)
class EcsStripSpec(FaultSpec):
    """A middlebox that silently removes the ECS option from queries.

    The classic "home router drops unknown EDNS options" failure the
    paper's scan methodology works around by probing without ECS.
    """

    kind: ClassVar[str] = "ecs-strip"

    probability: float = 1.0
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if message.ecs() is None:
            return None
        if rng.random() < self.probability:
            stripped = message.copy()
            stripped.set_ecs(None)
            return FaultAction(kind=self.kind, replace=stripped)
        return None


# -- outages ---------------------------------------------------------------


@dataclass(frozen=True)
class OutageSpec(FaultSpec):
    """Scheduled blackout: drop everything to ``dst`` (or everywhere)
    while the *virtual* clock is inside ``[start_s, end_s)``.

    Purely time-driven — no randomness — so outages line up exactly
    across reruns and worker counts.
    """

    kind: ClassVar[str] = "outage"
    direction: ClassVar[str] = BOTH

    start_s: float
    end_s: float
    dst: Optional[str] = None

    def fault(self, rng: random.Random, state: LinkState, src_ip: str,
              dst_ip: str, message: Message, tcp: bool,
              now: float) -> Optional[FaultAction]:
        if self.start_s <= now < self.end_s:
            return FaultAction(kind=self.kind, drop=True)
        return None
