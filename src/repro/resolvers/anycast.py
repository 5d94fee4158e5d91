"""Anycast public DNS resolution service (the All-Names Resolver's home).

The paper's fourth dataset comes from "a busy recursive resolver instance of
an anycast DNS resolution service": clients hit anycasted *front-ends*,
which forward queries to egress resolvers **while adding an ECS option
carrying the client's source IP address**; egress resolvers resolve and
return the authoritative ECS scope to the front-ends.  The paper's
front-end log of (client address, authoritative scope) pairs is the
All-Names Resolver dataset; here
:class:`~repro.datasets.allnames.AllNamesBuilder` synthesizes it, and the
front-ends keep no log.

:class:`PublicDnsService` wires that architecture: N front-ends placed at
anycast sites, M egress resolvers that trust ECS only from their own
front-ends (external ECS gets replaced with the sender address, matching
the major public resolver's observed anti-spoofing behavior).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import List, Optional, Sequence

from ..addr import address_text, parse_addr, truncate_int
from ..core.policies import EcsPolicy
from ..dnslib import EcsOption, Message, Rcode
from ..net.geo import City
from ..net.topology import AutonomousSystem
from ..net.transport import Network
from .base import DnsServer
from .recursive import RecursiveResolver


class AnycastFrontEnd(DnsServer):
    """A front-end: adds client-derived ECS, forwards to an egress."""

    span_name = "frontend"

    def __init__(self, ip: str, egress_ips: Sequence[str]):
        super().__init__(ip, log_queries=False)
        if not egress_ips:
            raise ValueError("front-end needs at least one egress resolver")
        self.egress_ips = list(egress_ips)
        self._msg_ids = itertools.count(1)

    def _egress_for(self, src_ip: str) -> str:
        """Sticky egress selection: clients in one /16 (or /32 for IPv6)
        share an egress, so their queries share one cache."""
        version, value = parse_addr(src_ip)
        bits = 16 if version == 4 else 32
        token = f"{address_text(version, truncate_int(version, value, bits))}" \
            f"/{bits}"
        digest = hashlib.sha256(token.encode("ascii")).digest()
        return self.egress_ips[int.from_bytes(digest[:4], "big")
                               % len(self.egress_ips)]

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        upstream = query.copy()
        upstream.msg_id = next(self._msg_ids) & 0xFFFF
        # The front-end conveys the *full* client address; the egress
        # resolver applies its own truncation policy before going upstream.
        width = 32 if ":" not in src_ip else 128
        upstream.set_ecs(EcsOption.from_client_address(src_ip, width))
        egress_ip = self._egress_for(src_ip)
        outcome = net.query(self.ip, egress_ip, upstream)
        if outcome.response is None:
            failed = query.make_response()
            failed.rcode = Rcode.SERVFAIL
            return failed
        reply = outcome.response.copy()
        reply.msg_id = query.msg_id
        if query.ecs() is None:
            reply.set_ecs(None)
        return reply


class PublicDnsService:
    """A complete anycast public resolution service."""

    def __init__(self, net: Network, service_as: AutonomousSystem,
                 root_hints: Sequence[str],
                 frontend_cities: Sequence[City],
                 egress_city: City,
                 egress_count: int = 2,
                 policy: Optional[EcsPolicy] = None):
        self.net = net
        self.egress_resolvers: List[RecursiveResolver] = []
        egress_ips = []
        for _ in range(egress_count):
            ip = service_as.host_in(egress_city)
            egress_ips.append(ip)
        self.frontends: List[AnycastFrontEnd] = []
        frontend_ips = []
        for c in frontend_cities:
            ip = service_as.host_in(c)
            frontend_ips.append(ip)
        trusted = frozenset(frontend_ips)
        for ip in egress_ips:
            resolver = RecursiveResolver(
                ip, net.clock, root_hints,
                policy=policy or EcsPolicy(),
                trusted_ecs_senders=trusted)
            net.attach(resolver)
            self.egress_resolvers.append(resolver)
        for ip in frontend_ips:
            fe = AnycastFrontEnd(ip, egress_ips)
            net.attach(fe)
            self.frontends.append(fe)

    @property
    def frontend_ips(self) -> List[str]:
        return [fe.ip for fe in self.frontends]

    @property
    def egress_ips(self) -> List[str]:
        return [r.ip for r in self.egress_resolvers]
