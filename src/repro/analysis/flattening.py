"""Section 8.4 analysis: the CNAME-flattening pitfall (Figure 8).

The case study: ``customer.com`` is hosted at a DNS provider that flattens
the apex CNAME — on an apex query it resolves the CDN-assigned name itself,
on the backend, *without* the client's ECS.  The CDN therefore maps the
apex answer to an edge near the **DNS provider**, and the content provider
papers over the bad mapping with an HTTP redirect to ``www.customer.com``,
whose normal CNAME path carries ECS end to end.

The lab reproduces the full Figure 8 sequence with a real client, public
resolver, provider, and CDN, and times every phase, so the benchmark can
report the redirect-induced penalty (the paper measured a 125 ms handshake
to the mis-mapped edge and ~650 ms of total penalty) and verify that the
careful variant (backend ECS forwarding) removes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..auth.cdn import CdnAuthoritative, build_edge_pools
from ..auth.flattening import FlatteningProvider
from ..auth.hierarchy import DnsHierarchy
from ..core.policies import EcsPolicy
from ..dnslib import Name, RecordType
from ..measure.digclient import StubClient
from ..net.geo import city
from ..net.topology import Topology
from ..net.transport import Network
from ..resolvers import PublicDnsService
from .report import Comparison, format_comparisons
from .unroutable import EDGE_CITIES


@dataclass
class FlatteningLab:
    """Client (Santiago) + public DNS + provider (Frankfurt) + CDN."""

    net: Network
    topology: Topology
    client_ip: str
    frontend_ip: str
    provider: FlatteningProvider
    cdn: CdnAuthoritative
    apex: Name
    www: Name

    @classmethod
    def build(cls, forward_ecs: bool = False) -> "FlatteningLab":
        topology = Topology()
        net = Network(topology)
        infra = topology.create_as("infra", "US")
        hierarchy = DnsHierarchy(net, infra)

        cdn_as = topology.create_as("major-cdn", "US", v4_prefixlen=12)
        pools = build_edge_pools(topology, cdn_as,
                                 [city(n) for n in EDGE_CITIES],
                                 addresses_per_pool=2)
        cdn_ip = cdn_as.host_in(city("Ashburn"))
        cdn_domain = Name.from_text("cdn.example.")
        cdn = CdnAuthoritative(cdn_ip, [cdn_domain], pools, topology,
                               whitelist=None, answers_per_response=1)
        net.attach(cdn)
        hierarchy.attach_authoritative(cdn_domain, cdn_ip)

        provider_as = topology.create_as("dns-provider", "DE")
        provider_ip = provider_as.host_in(city("Frankfurt"))
        apex = Name.from_text("customer.com.")
        provider = FlatteningProvider(
            provider_ip, apex, cdn_ip,
            apex_target=Name.from_text("ex.cdn.example."),
            www_target=Name.from_text("www-ex.cdn.example."),
            forward_ecs=forward_ecs)
        net.attach(provider)
        hierarchy.attach_authoritative(apex, provider_ip)

        service_as = topology.create_as("public-dns", "US")
        service = PublicDnsService(
            net, service_as, hierarchy.root_ips,
            frontend_cities=[city(n) for n in
                             ("Santiago", "Sao Paulo", "Ashburn", "Frankfurt")],
            egress_city=city("Ashburn"), egress_count=2,
            policy=EcsPolicy())

        eyeball = topology.create_as("eyeball-cl", "CL")
        client_ip = eyeball.host_in(city("Santiago"))
        # The client uses the anycast public DNS: nearest front-end.
        frontend_ip = min(
            service.frontend_ips,
            key=lambda ip: topology.distance_km(client_ip, ip) or 1e9)
        return cls(net, topology, client_ip, frontend_ip, provider, cdn,
                   apex, apex.child("www"))


@dataclass
class FlatteningTimings:
    """Per-phase timings of the Figure 8 sequence (milliseconds)."""

    apex_dns_ms: float
    apex_edge_ip: Optional[str]
    apex_handshake_ms: float
    redirect_fetch_ms: float
    www_dns_ms: float
    www_edge_ip: Optional[str]
    www_handshake_ms: float

    @property
    def apex_total_ms(self) -> float:
        """Elapsed time wasted before the client reaches the right edge:
        apex resolution + connecting to the mis-mapped edge + fetching the
        redirect (steps 1–8 of Figure 8)."""
        return self.apex_dns_ms + self.apex_handshake_ms + self.redirect_fetch_ms

    @property
    def penalty_ms(self) -> float:
        """The CNAME-flattening penalty: everything before the www phase."""
        return self.apex_total_ms

    def report(self, title: str = "Figure 8 — CNAME flattening") -> str:
        items = [
            Comparison("handshake to mis-mapped edge (ms)", 125,
                       round(self.apex_handshake_ms, 1)),
            Comparison("handshake to correct edge (ms)", 45,
                       round(self.www_handshake_ms, 1)),
            Comparison("total penalty before www phase (ms)", 650,
                       round(self.penalty_ms, 1)),
        ]
        return format_comparisons(items, title)


def run_flattening_case_study(lab: FlatteningLab) -> FlatteningTimings:
    """Execute the Figure 8 access sequence and time each phase."""
    client = StubClient(lab.client_ip, lab.net)

    apex_result = client.query(lab.frontend_ip, lab.apex, RecordType.A)
    apex_edge = apex_result.first_address
    apex_handshake = (lab.net.tcp_handshake_ms(lab.client_ip, apex_edge)
                      if apex_edge else float("nan"))
    # HTTP redirect: request + response over the established connection.
    redirect_fetch = apex_handshake

    www_result = client.query(lab.frontend_ip, lab.www, RecordType.A)
    www_edge = www_result.first_address
    www_handshake = (lab.net.tcp_handshake_ms(lab.client_ip, www_edge)
                     if www_edge else float("nan"))
    return FlatteningTimings(
        apex_dns_ms=apex_result.elapsed_ms,
        apex_edge_ip=apex_edge,
        apex_handshake_ms=apex_handshake,
        redirect_fetch_ms=redirect_fetch,
        www_dns_ms=www_result.elapsed_ms,
        www_edge_ip=www_edge,
        www_handshake_ms=www_handshake,
    )
