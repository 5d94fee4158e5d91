"""Generic authoritative DNS server.

Serves static :class:`~repro.dnslib.zone.Zone` data over the simulated
transport, with configurable ECS behavior (no support, or echo with a fixed
scope function) and a query log in the shape the classifiers and dataset
builders consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..dnslib import (DnsError, EcsOption, Message, Name, Rcode,
                      WireFormatError, Zone, decode_message, encode_message)
from ..net.transport import Network
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace


@dataclass(slots=True)
class AuthLogRecord:
    """One query as logged by an authoritative server.

    Field names intentionally match
    :class:`repro.core.classify.QueryObservation` so log records feed the
    classifiers directly.
    """

    ts: float
    src_ip: str
    qname: str
    qtype: int
    has_ecs: bool
    ecs_address: Optional[str] = None
    ecs_source_len: Optional[int] = None
    ecs_scope_sent: Optional[int] = None
    rcode: int = 0


#: Signature for a scope policy: (query ECS) -> scope prefix length to return.
ScopeFunction = Callable[[EcsOption], int]


def fixed_scope(bits: int) -> ScopeFunction:
    """A scope policy that always returns ``bits`` (capped at the source)."""

    def policy(ecs: EcsOption) -> int:
        return min(bits, ecs.source_prefix_length)

    return policy


def source_minus(delta: int) -> ScopeFunction:
    """The scan experiment's policy: scope = max(source − delta, 0)."""

    def policy(ecs: EcsOption) -> int:
        return max(ecs.source_prefix_length - delta, 0)

    return policy


class DnsServer:
    """Base class: wire decode → ``handle_query`` → wire encode, plus a log."""

    #: Span name this endpoint contributes to a query-lifecycle trace;
    #: subclasses override it to their role (``resolve``, ``forward``,
    #: ``authoritative``) so traces read as client → chain → origin.
    span_name = "serve"

    def __init__(self, ip: str, log_queries: bool = True):
        self.ip = ip
        self.log_queries = log_queries
        self.log: List[AuthLogRecord] = []
        self.queries_received = 0

    # -- transport hook ------------------------------------------------------

    def handle_datagram(self, wire: bytes, src_ip: str,
                        net: Network, tcp: bool = False) -> Optional[bytes]:
        self.queries_received += 1
        try:
            query = decode_message(wire)
        except WireFormatError:
            return None
        tracer = _obs_trace.ACTIVE
        if tracer is None:
            response = self._respond(query, src_ip, net)
        else:
            with tracer.span(self.span_name, server=self.ip,
                             role=type(self).__name__, client=src_ip,
                             tcp=tcp) as span:
                if query.question is not None:
                    span.attrs["qname"] = query.question.qname.to_text()
                    span.attrs["qtype"] = int(query.question.qtype)
                ecs_in = query.ecs()
                if ecs_in is not None:
                    span.attrs["ecs_address"] = ecs_in.address_text
                    span.attrs["ecs_source_len"] = ecs_in.source_prefix_length
                response = self._respond(query, src_ip, net)
                if response is not None:
                    span.attrs["rcode"] = int(response.rcode)
                    ecs_out = response.ecs()
                    if ecs_out is not None:
                        span.attrs["ecs_scope_out"] = \
                            ecs_out.scope_prefix_length
        reg = _obs_metrics.ACTIVE
        if reg is not None:
            reg.counter("repro_server_queries_total",
                        "Queries received, by endpoint role.",
                        ("role",)).inc(1, type(self).__name__)
        if response is None:
            return None
        self._log(query, response, src_ip, net)
        response_wire = encode_message(response)
        if not tcp:
            # RFC 6891 section 6.2.3: an advertised payload size below
            # 512 is treated as 512.
            limit = 512 if query.edns is None \
                else max(512, query.edns.payload_size)
            if len(response_wire) > limit:
                # UDP size exceeded: answer with an empty TC=1 response so
                # the client retries over TCP (RFC 1035 section 4.2.1).
                truncated = query.make_response()
                truncated.rcode = response.rcode
                truncated.truncated = True
                response_wire = encode_message(truncated)
        return response_wire

    def _respond(self, query: Message, src_ip: str,
                 net: Network) -> Optional[Message]:
        """``handle_query`` with the shared SERVFAIL-on-error behavior."""
        try:
            return self.handle_query(query, src_ip, net)
        except DnsError:
            response = query.make_response()
            response.rcode = Rcode.SERVFAIL
            return response

    def _log(self, query: Message, response: Message, src_ip: str,
             net: Network) -> None:
        if not self.log_queries or query.question is None:
            return
        ecs = query.ecs()
        resp_ecs = response.ecs()
        self.log.append(AuthLogRecord(
            net.clock.now(), src_ip, query.question.qname.to_text(),
            int(query.question.qtype), ecs is not None,
            ecs.address_text if ecs else None,
            ecs.source_prefix_length if ecs else None,
            resp_ecs.scope_prefix_length if resp_ecs else None,
            int(response.rcode)))

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        raise NotImplementedError

class AuthoritativeServer(DnsServer):
    """Serves one or more static zones.

    ``ecs_scope`` enables ECS support: queries carrying an ECS option get it
    echoed back with the scope this function selects.  ``None`` models a
    server with no ECS support — options in queries are silently ignored and
    responses carry no ECS, exactly how RFC 7871 says non-adopters behave.
    """

    span_name = "authoritative"

    def __init__(self, ip: str, zones: Sequence[Zone],
                 ecs_scope: Optional[ScopeFunction] = None,
                 supports_edns: bool = True):
        super().__init__(ip)
        self.zones = list(zones)
        self.ecs_scope = ecs_scope
        self.supports_edns = supports_edns

    def zone_for(self, qname: Name) -> Optional[Zone]:
        """The most specific zone containing ``qname``."""
        best: Optional[Zone] = None
        for zone in self.zones:
            if qname.is_subdomain_of(zone.origin):
                if best is None or len(zone.origin) > len(best.origin):
                    best = zone
        return best

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        response = query.make_response()
        if query.question is None:
            response.rcode = Rcode.FORMERR
            return response
        if not self.supports_edns and query.edns is not None:
            # Pre-EDNS0 servers answer with FORMERR (RFC 6891 section 7).
            response.rcode = Rcode.FORMERR
            response.edns = None
            return response

        zone = self.zone_for(query.question.qname)
        if zone is None:
            response.rcode = Rcode.REFUSED
            return response
        result = zone.lookup(query.question.qname, query.question.qtype)
        response.rcode = result.rcode
        response.answers = result.answers
        response.authority = result.authority
        response.additional = result.additional
        response.authoritative = not result.is_referral

        query_ecs = query.ecs()
        if query_ecs is not None and self.ecs_scope is not None \
                and response.edns is not None:
            scope = self.ecs_scope(query_ecs)
            response.set_ecs(query_ecs.response_to(scope))
        return response
