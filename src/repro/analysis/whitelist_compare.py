"""Section 9 extension: whitelisted vs non-whitelisted resolvers, compared.

The paper's future work asks for a comparative analysis of resolvers the
CDN whitelists for ECS against those it does not.  This lab builds the
cleanest version of that comparison: two *identical* public resolvers in
the same distant city serve the same spread-out client population; the CDN
whitelists exactly one of them.  Measured per resolver:

* mapping quality — mean modeled TCP-connect time from each client to the
  first edge it is given (the ECS benefit);
* cache state and hit rate — the section 7 cost;
* authoritative query volume — the amplification Chen et al. report as 8×.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..auth.cdn import CdnAuthoritative, build_edge_pools
from ..auth.hierarchy import DnsHierarchy
from ..dnslib import Name
from ..measure.digclient import StubClient
from ..net.geo import city
from ..net.topology import Topology
from ..net.transport import Network
from ..resolvers import RecursiveResolver
from .report import Comparison, format_comparisons
from .unroutable import EDGE_CITIES

#: Cities the client population is spread over (far from the resolvers).
CLIENT_CITIES = ("Santiago", "Tokyo", "Johannesburg", "Sydney", "Mumbai",
                 "Frankfurt", "Seattle", "Sao Paulo")


@dataclass
class ResolverOutcome:
    """Measurements for one resolver in the comparison."""

    resolver_ip: str
    whitelisted: bool
    mean_connect_ms: float
    cache_hit_rate: float
    peak_cache_entries: int
    cdn_queries: int


@dataclass
class WhitelistComparison:
    """Side-by-side outcome of the whitelisted-vs-not experiment."""

    whitelisted: ResolverOutcome
    plain: ResolverOutcome

    @property
    def latency_improvement(self) -> float:
        """Fraction by which ECS cut the mean connect time."""
        if self.plain.mean_connect_ms == 0:
            return 0.0
        return 1.0 - (self.whitelisted.mean_connect_ms
                      / self.plain.mean_connect_ms)

    @property
    def query_amplification(self) -> float:
        """CDN queries from the whitelisted resolver vs the plain one."""
        return self.whitelisted.cdn_queries / max(1, self.plain.cdn_queries)

    @property
    def cache_amplification(self) -> float:
        return (self.whitelisted.peak_cache_entries
                / max(1, self.plain.peak_cache_entries))

    def report(self) -> str:
        items = [
            Comparison("mean connect, whitelisted (ms)", None,
                       round(self.whitelisted.mean_connect_ms, 1)),
            Comparison("mean connect, non-whitelisted (ms)", None,
                       round(self.plain.mean_connect_ms, 1)),
            Comparison("latency improvement from ECS",
                       "≈50% (Chen et al.)",
                       f"{self.latency_improvement:.0%}"),
            Comparison("CDN query amplification", "≈8x (Chen et al.)",
                       f"{self.query_amplification:.1f}x"),
            Comparison("peak cache amplification", "cf. Fig 1",
                       f"{self.cache_amplification:.1f}x"),
            Comparison("hit rate, whitelisted", None,
                       f"{self.whitelisted.cache_hit_rate:.0%}"),
            Comparison("hit rate, non-whitelisted", None,
                       f"{self.plain.cache_hit_rate:.0%}"),
        ]
        return format_comparisons(
            items, "Section 9 extension — whitelisted vs non-whitelisted")


def run_whitelist_comparison(  # repro-lint: disable=RS008 (§9 extension; the whitelist bench reports it)
        seed: int = 0, clients_per_city: int = 4,
        rounds: int = 6) -> WhitelistComparison:
    """Build the lab and run the comparison experiment."""
    rng = random.Random(seed)
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    hierarchy = DnsHierarchy(net, infra)

    cdn_as = topology.create_as("cdn", "US", v4_prefixlen=12)
    pools = build_edge_pools(topology, cdn_as,
                             [city(n) for n in EDGE_CITIES],
                             addresses_per_pool=2)
    cdn_ip = cdn_as.host_in(city("Ashburn"))
    domain = Name.from_text("wl.example.")

    service_as = topology.create_as("public-resolvers", "US")
    resolver_city = city("Ashburn")
    whitelisted_ip = service_as.host_in(resolver_city)
    plain_ip = service_as.host_in(resolver_city)
    cdn = CdnAuthoritative(cdn_ip, [domain], pools, topology, ttl=20,
                           whitelist={whitelisted_ip})
    net.attach(cdn)
    hierarchy.attach_authoritative(domain, cdn_ip)

    for ip in (whitelisted_ip, plain_ip):
        resolver = RecursiveResolver(ip, topology.clock, hierarchy.root_ips)
        net.attach(resolver)

    clients: List[StubClient] = []
    eyeballs = {}
    for city_name in CLIENT_CITIES:
        as_ = eyeballs.setdefault(
            city_name, topology.create_as(f"eyeball-{city_name}",
                                          city(city_name).country))
        for _ in range(clients_per_city):
            clients.append(StubClient(as_.host_in(city(city_name)), net))

    names = [f"a{i}.wl.example." for i in range(5)]

    def run_for(resolver_ip: str, whitelisted: bool) -> ResolverOutcome:
        cdn_before = cdn.queries_received
        connects: List[float] = []
        order = clients[:]
        for _ in range(rounds):
            rng.shuffle(order)
            for client in order:
                qname = rng.choice(names)
                result = client.query(resolver_ip, qname)
                if result.first_address:
                    connects.append(net.tcp_handshake_ms(
                        client.ip, result.first_address))
            net.clock.advance(rng.uniform(3.0, 8.0))
        resolver = net.endpoint_at(resolver_ip)
        stats = resolver.cache.stats
        return ResolverOutcome(
            resolver_ip, whitelisted,
            mean_connect_ms=sum(connects) / len(connects),
            cache_hit_rate=stats.hit_rate(),
            peak_cache_entries=stats.max_size,
            cdn_queries=cdn.queries_received - cdn_before,
        )

    outcome_wl = run_for(whitelisted_ip, True)
    outcome_plain = run_for(plain_ip, False)
    return WhitelistComparison(outcome_wl, outcome_plain)
