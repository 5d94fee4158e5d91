"""Datagram transport: serializes every message through the wire codec.

:class:`Network` plays the role of UDP over the Internet.  Endpoints register
under their IP addresses and implement ``handle_datagram``; a query is
encoded to bytes, "propagated" (the shared clock advances by the modeled
one-way latency), handled — possibly triggering nested queries that advance
the clock further — and the response propagates back.  The elapsed virtual
time for a full recursive resolution therefore falls out naturally.

Failure injection: one installable :class:`FaultInjector` hook (see
:mod:`repro.faults`) lets a composed fault plan drop, delay, truncate,
rewrite, or error-answer any datagram deterministically, and a
byte-budget counter supports query-amplification analyses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol

from ..dnslib import (Message, Rcode, WireFormatError, decode_message,
                      encode_message)
from ..engine.seeding import derive_seed
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .topology import Topology

#: RTT histogram bucket bounds in milliseconds (virtual time, so the
#: distribution is deterministic for a fixed seed and worker count).
RTT_BUCKETS_MS = (5.0, 10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 250.0,
                  500.0, 1000.0, 2000.0)


class Endpoint(Protocol):
    """Anything that can receive a DNS datagram."""

    ip: str

    def handle_datagram(self, wire: bytes, src_ip: str, net: "Network",
                        tcp: bool = False) -> Optional[bytes]:
        """Process one datagram; return the response bytes or ``None`` to drop.

        ``tcp`` marks a stream-transport delivery: no UDP size limit
        applies and the response must not be truncated.
        """


@dataclass(slots=True)
class QueryOutcome:
    """Result of one round trip: the response (or None on timeout) and timing."""

    response: Optional[Message]
    elapsed_ms: float
    timed_out: bool = False


@dataclass
class FaultAction:
    """What an installed injector wants done to one datagram.

    ``kind`` names the injector for the fault counters.  The remaining
    fields compose: extra latency applies before any drop/short-circuit,
    ``replace`` substitutes the in-flight message (e.g. an ECS-stripping
    middlebox), ``rcode`` answers the query with an error without ever
    reaching the destination, and ``truncate`` forces TC=1 on a UDP
    response so the client must fall back to TCP.
    """

    kind: str
    drop: bool = False
    extra_one_way_ms: float = 0.0
    rcode: Optional[Rcode] = None
    truncate: bool = False
    replace: Optional[Message] = None


class FaultInjector(Protocol):
    """A fault plan bound to its random streams (see :mod:`repro.faults`).

    Both hooks return ``None`` for "no fault"; the network applies any
    returned :class:`FaultAction` and counts it.  ``now`` is the virtual
    clock at the moment the datagram enters the fabric, so scheduled
    outages key off simulation time, never wall time.
    """

    def on_query(self, src_ip: str, dst_ip: str, message: Message,
                 tcp: bool, now: float) -> Optional[FaultAction]:
        """Inspect a query datagram entering the fabric."""

    def on_response(self, src_ip: str, dst_ip: str, response: Message,
                    tcp: bool, now: float) -> Optional[FaultAction]:
        """Inspect a response datagram on its way back to ``src_ip``."""


@dataclass
class NetworkStats:
    """Counters for traffic crossing the fabric.

    Merging follows the shard algebra of
    :class:`~repro.analysis.cache_sim.ReplayPartial`: every field folds
    by addition, so per-shard stats combine associatively, commutatively
    and with an all-zero identity regardless of merge order.
    """

    datagrams: int = 0
    bytes_sent: int = 0
    timeouts: int = 0
    drops: int = 0
    faults_injected: int = 0
    per_destination: Dict[str, int] = field(default_factory=dict)

    def record(self, dst_ip: str, nbytes: int) -> None:
        self.datagrams += 1
        self.bytes_sent += nbytes
        self.per_destination[dst_ip] = self.per_destination.get(dst_ip, 0) + 1

    def timeout_rate(self) -> float:
        """Fraction of sent datagrams that timed out (0.0 when idle)."""
        return self.timeouts / self.datagrams if self.datagrams else 0.0

    def drop_rate(self) -> float:
        """Fraction of sent datagrams dropped in flight (0.0 when idle)."""
        return self.drops / self.datagrams if self.datagrams else 0.0

    def merge_from(self, other: "NetworkStats") -> "NetworkStats":
        """Fold another shard's counters into this one (in place)."""
        self.datagrams += other.datagrams
        self.bytes_sent += other.bytes_sent
        self.timeouts += other.timeouts
        self.drops += other.drops
        self.faults_injected += other.faults_injected
        for dst, count in other.per_destination.items():
            self.per_destination[dst] = \
                self.per_destination.get(dst, 0) + count
        return self

    def merge(self, other: "NetworkStats") -> "NetworkStats":
        """Pure merge: a new snapshot holding the combined counters."""
        return NetworkStats().merge_from(self).merge_from(other)


class Network:
    """The simulated datagram fabric."""

    #: Elapsed time charged for a query that never gets answered.
    TIMEOUT_MS = 2000.0

    def __init__(self, topology: Optional[Topology] = None,
                 advance_clock: bool = True,
                 rng: Optional[random.Random] = None,
                 seed: int = 0):
        self.topology = topology or Topology()
        self.clock = self.topology.clock
        self.advance_clock = advance_clock
        self.stats = NetworkStats()
        self._endpoints: Dict[str, Endpoint] = {}
        self._injector: Optional[FaultInjector] = None
        # A Network built without an explicit rng still has a stable
        # identity: its stream derives from ``seed`` through the same
        # SHA-256 derivation every shard uses, so run-to-run and
        # worker-count reproducibility hold by construction.
        if rng is None:
            rng = random.Random(derive_seed(seed, 0, "net.transport"))
        self._rng = rng

    # -- registry ----------------------------------------------------------

    def attach(self, endpoint: Endpoint) -> None:
        """Register ``endpoint`` at its IP."""
        self._endpoints[endpoint.ip] = endpoint

    def endpoint_at(self, ip: str) -> Optional[Endpoint]:
        return self._endpoints.get(ip)

    # -- failure injection ---------------------------------------------------

    def install_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or, with ``None``, remove) the fault-injection hook."""
        self._injector = injector

    def _note_fault(self, kind: str) -> None:
        self.stats.faults_injected += 1
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_faults_injected_total",
                        "Fault-injector actions applied to datagrams.",
                        ("kind",)).inc(1, kind)

    # -- the data path -------------------------------------------------------

    def query(self, src_ip: str, dst_ip: str, message: Message,
              rng: Optional[random.Random] = None,
              tcp: bool = False) -> QueryOutcome:
        """Send ``message`` and wait (in virtual time) for the response.

        ``tcp=True`` models a stream query (retry after truncation): one
        extra RTT is charged for the handshake and no size limit applies.

        When tracing is active the round trip becomes a ``net.query``
        span; because the destination endpoint handles the datagram
        inline, every span it opens (forward hops, resolve, the
        authoritative's answer) nests inside this one — the query
        lifecycle falls out of the call tree.
        """
        tracer = _obs_trace.ACTIVE
        if tracer is None:
            return self._transmit(src_ip, dst_ip, message, rng, tcp)
        with tracer.span("net.query", src=src_ip, dst=dst_ip,
                         transport="tcp" if tcp else "udp") as span:
            outcome = self._transmit(src_ip, dst_ip, message, rng, tcp)
            span.attrs["timed_out"] = outcome.timed_out
            span.attrs["elapsed_ms"] = round(outcome.elapsed_ms, 3)
        return outcome

    def _transmit(self, src_ip: str, dst_ip: str, message: Message,
                  rng: Optional[random.Random], tcp: bool) -> QueryOutcome:
        start = self.clock.now()
        injector = self._injector
        action = None
        if injector is not None:
            action = injector.on_query(src_ip, dst_ip, message, tcp, start)
            if action is not None:
                self._note_fault(action.kind)
                if action.replace is not None:
                    # e.g. an ECS-stripping middlebox rewrote the query.
                    message = action.replace
        wire = encode_message(message)
        self.stats.record(dst_ip, len(wire))
        transport = "tcp" if tcp else "udp"
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_net_datagrams_total",
                        "Datagrams sent across the fabric.",
                        ("transport",)).inc(1, transport)
            reg.counter("repro_net_bytes_sent_total",
                        "Query bytes put on the wire.",
                        ("transport",)).inc(len(wire), transport)
        one_way_s = self.topology.rtt_ms(src_ip, dst_ip, rng) / 2.0 / 1000.0
        if action is not None and action.extra_one_way_ms:
            one_way_s += action.extra_one_way_ms / 1000.0
        # A fabric that does not move the clock charges the round trip
        # from the legs: the TCP handshake is one more round trip.
        handshake_ms = one_way_s * 2000.0 if tcp else 0.0

        endpoint = self._endpoints.get(dst_ip)
        if (action is not None and action.drop) or endpoint is None:
            if endpoint is None:
                self.stats.timeouts += 1
                outcome_label = "timeout"
            else:
                self.stats.drops += 1
                outcome_label = "drop"
            if self.advance_clock:
                self.clock.advance(self.TIMEOUT_MS / 1000.0)
            if reg is not None:
                self._record_outcome(reg, transport, outcome_label,
                                     self.TIMEOUT_MS)
            return QueryOutcome(None, self.TIMEOUT_MS, timed_out=True)

        if action is not None and action.rcode is not None:
            # A middlebox or broken server answers with an error rcode;
            # the destination never sees the query, but a full round
            # trip still elapses.
            faulted = message.make_response()
            faulted.rcode = action.rcode
            if self.advance_clock:
                if tcp:
                    self.clock.advance(2 * one_way_s)  # TCP handshake
                self.clock.advance(2 * one_way_s)
            elapsed_ms = (self.clock.now() - start) * 1000.0 \
                if self.advance_clock else handshake_ms + one_way_s * 2000.0
            if reg is not None:
                self._record_outcome(reg, transport, "faulted", elapsed_ms)
            return QueryOutcome(faulted, elapsed_ms)

        if self.advance_clock:
            if tcp:
                self.clock.advance(2 * one_way_s)  # TCP handshake
            self.clock.advance(one_way_s)
        response_wire = endpoint.handle_datagram(wire, src_ip, self, tcp=tcp)
        if response_wire is None:
            return self._response_lost(start, transport)
        try:
            response = decode_message(response_wire)
        except WireFormatError:
            # An answer the client cannot parse is an answer it never got.
            return self._response_lost(start, transport)
        if injector is not None:
            r_action = injector.on_response(src_ip, dst_ip, response, tcp,
                                            self.clock.now())
            if r_action is not None:
                self._note_fault(r_action.kind)
                if r_action.drop:
                    return self._response_lost(start, transport)
                if r_action.extra_one_way_ms:
                    one_way_s += r_action.extra_one_way_ms / 1000.0
                if r_action.replace is not None:
                    response = r_action.replace
                if r_action.truncate and not tcp:
                    # The response exceeded some middlebox's appetite:
                    # deliver an empty TC=1 answer (RFC 1035 section
                    # 4.2.1) so the client retries over TCP.
                    response.truncated = True
                    response.answers = []
        if self.advance_clock:
            self.clock.advance(one_way_s)
        elapsed_ms = (self.clock.now() - start) * 1000.0 if self.advance_clock \
            else handshake_ms + one_way_s * 2000.0
        if reg is not None:
            self._record_outcome(reg, transport, "answered", elapsed_ms)
        return QueryOutcome(response, elapsed_ms)

    def _response_lost(self, start: float, transport: str) -> QueryOutcome:
        """The response never made it back: charge the full timeout."""
        self.stats.drops += 1
        if self.advance_clock:
            # the timeout clock started when the query was sent
            deadline = start + self.TIMEOUT_MS / 1000.0
            self.clock.advance_to(deadline)
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            self._record_outcome(reg, transport, "drop", self.TIMEOUT_MS)
        return QueryOutcome(None, self.TIMEOUT_MS, timed_out=True)

    @staticmethod
    def _record_outcome(reg, transport: str, outcome: str,
                        elapsed_ms: float) -> None:
        """Out-of-band fault/latency instrumentation for one round trip."""
        reg.counter("repro_net_queries_total",
                    "Round trips by transport and outcome.",
                    ("transport", "outcome")).inc(1, transport, outcome)
        reg.histogram("repro_net_rtt_ms",
                      "Virtual round-trip time per query (ms).",
                      ("transport", "outcome"),
                      buckets=RTT_BUCKETS_MS).observe(elapsed_ms, transport,
                                                      outcome)

    def tcp_handshake_ms(self, src_ip: str, dst_ip: str,
                         rng: Optional[random.Random] = None) -> float:
        """Model a TCP connect: one RTT to the destination.

        Used by the Atlas-like probes (Figs 6, 7) and the CNAME-flattening
        case study (Fig 8); no bytes actually flow.
        """
        return self.topology.rtt_ms(src_ip, dst_ip, rng)

    def ping_ms(self, src_ip: str, dst_ip: str, count: int = 8,
                rng: Optional[random.Random] = None) -> float:
        """Average of ``count`` modeled pings (Table 2 averages 8)."""
        rng = rng or self._rng
        if count <= 0:
            raise ValueError("ping count must be positive")
        samples = [self.topology.rtt_ms(src_ip, dst_ip, rng)
                   for _ in range(count)]
        return sum(samples) / len(samples)
