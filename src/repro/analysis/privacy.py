"""Privacy leakage by probing strategy (the section 6.1 critique, made
quantitative).

RFC 7871 tells resolvers not to send ECS blindly, because revealing client
prefixes to authoritative servers that never use them is pure privacy loss.
The paper observes strategies all over this spectrum — always-send,
hostname probes, 30-minute loopback probes, per-domain whitelists — and
recommends own-address probing.  This lab measures each strategy against a
mixed authoritative population (some ECS-enabled, some not) and counts:

* client-prefix bits revealed to ECS-enabled servers (the useful price),
* client-prefix bits revealed to ECS-oblivious servers (pure waste),
* the mapping benefit actually obtained (fraction of CDN queries carrying
  usable client data).

Loopback/fixed-prefix probes reveal zero *client* bits by construction —
their cost is the mapping confusion section 8.1 documents, not privacy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..addr import is_routable, parse_addr, same_prefix
from ..auth.cdn import CdnAuthoritative, build_edge_pools
from ..auth.hierarchy import DnsHierarchy
from ..auth.server import AuthLogRecord, AuthoritativeServer
from ..core.policies import EcsPolicy
from ..dnslib import Name, Zone
from ..measure.digclient import StubClient
from ..net.geo import city
from ..net.topology import Topology
from ..net.transport import Network
from ..resolvers import RecursiveResolver, behaviors
from .report import format_table


@dataclass
class PrivacyOutcome:
    """Leakage accounting for one probing strategy."""

    strategy: str
    queries_upstream: int = 0
    ecs_to_ecs_servers: int = 0
    ecs_to_plain_servers: int = 0
    client_bits_to_ecs_servers: int = 0
    client_bits_to_plain_servers: int = 0

    @property
    def wasted_leak_fraction(self) -> float:
        """Fraction of revealed client bits that went to ECS-oblivious
        servers (the paper's "unnecessary" leakage)."""
        total = (self.client_bits_to_ecs_servers
                 + self.client_bits_to_plain_servers)
        return self.client_bits_to_plain_servers / total if total else 0.0


@dataclass
class PrivacyStudy:
    """Results for every strategy, plus rendering."""

    outcomes: List[PrivacyOutcome]

    def by_strategy(self) -> Dict[str, PrivacyOutcome]:
        return {o.strategy: o for o in self.outcomes}

    def report(self) -> str:
        rows = []
        for o in self.outcomes:
            rows.append((o.strategy, o.queries_upstream,
                         o.ecs_to_ecs_servers, o.ecs_to_plain_servers,
                         o.client_bits_to_plain_servers,
                         f"{o.wasted_leak_fraction:.0%}"))
        return format_table(
            ("strategy", "upstream q", "ECS→ECS srv", "ECS→plain srv",
             "wasted client bits", "wasted fraction"),
            rows,
            title="Privacy leakage by probing strategy (section 6.1)")


#: The strategies the paper observes, plus its recommendation.
STRATEGIES: Tuple[Tuple[str, EcsPolicy], ...] = (
    ("always_ecs", behaviors.ALWAYS_ECS),
    ("domain_whitelist", behaviors.DOMAIN_WHITELISTER),
    ("interval_loopback", behaviors.INTERVAL_LOOPBACK_PROBER),
    ("recommended_own_address", behaviors.RECOMMENDED_PROBER),
    ("never", behaviors.NO_ECS),
)
#: ECS-oblivious zones beside the one ECS-enabled CDN.
PLAIN_ZONE_COUNT = 4


def _count_client_bits(record: AuthLogRecord, client_ip: str) -> int:
    """Bits of the *client's* address a logged ECS option reveals.

    Loopback/private probe prefixes reveal nothing about the client; a
    genuine prefix reveals its source length (jammed /32s still reveal
    only 24 real bits, but the resolver *claims* 32 — we count actual
    client-derived bits, so only prefixes covering the client count).
    """
    if not record.has_ecs or record.ecs_address is None \
            or record.ecs_source_len is None:
        return 0
    if not is_routable(*parse_addr(record.ecs_address)):
        return 0
    bits = min(record.ecs_source_len, 24)
    if same_prefix(record.ecs_address, client_ip, bits):
        return record.ecs_source_len
    return 0


def run_privacy_study(seed: int = 0) -> PrivacyStudy:
    """Drive one resolver per :data:`STRATEGIES` entry against a mixed
    server population."""
    rng = random.Random(seed)
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    hierarchy = DnsHierarchy(net, infra)

    # One ECS-enabled CDN authoritative...
    cdn_as = topology.create_as("cdn", "US")
    pools = build_edge_pools(topology, cdn_as,
                             [city("Chicago"), city("Frankfurt")])
    cdn_ip = cdn_as.host_in(city("Ashburn"))
    cdn_domain = Name.from_text("cdn.example.")
    cdn = CdnAuthoritative(cdn_ip, [cdn_domain], pools, topology, ttl=15)
    net.attach(cdn)
    hierarchy.attach_authoritative(cdn_domain, cdn_ip)

    # ...and several ECS-oblivious zones.
    plain_servers: List[AuthoritativeServer] = []
    for i in range(PLAIN_ZONE_COUNT):
        zone = Zone(Name.from_text(f"plain{i}.example."), default_ttl=15)
        zone.add_soa()
        zone.add_text("www", "A", f"203.0.{113 + i}.10")
        server = hierarchy.host_zone(zone, city("Denver"))
        plain_servers.append(server)

    qnames = ([f"www.plain{i}.example." for i in range(PLAIN_ZONE_COUNT)]
              + ["a.cdn.example.", "b.cdn.example."])

    isp = topology.create_as("isp", "US")
    outcomes: List[PrivacyOutcome] = []
    for strategy_name, base_policy in STRATEGIES:
        policy = base_policy
        if policy.probing is behaviors.ProbingStrategy.DOMAIN_WHITELIST:
            policy = policy.with_(whitelist_zones=(cdn_domain,))
        resolver_ip = isp.host_in_new_subnet(city("Cleveland"))
        resolver = RecursiveResolver(resolver_ip, topology.clock,
                                     hierarchy.root_ips, policy=policy)
        net.attach(resolver)
        # The client lives in a different /24 than its resolver, so
        # resolver-own-address probes reveal zero client bits.
        client_ip = isp.host_in_new_subnet(city("Cleveland"))
        client = StubClient(client_ip, net)

        cdn_log_start = len(cdn.log)
        plain_log_starts = [len(s.log) for s in plain_servers]
        upstream_before = resolver.upstream_queries
        for _ in range(12):  # rounds, every name once a round
            for qname in qnames:
                client.query(resolver_ip, qname)
            net.clock.advance(400.0 * rng.uniform(0.9, 1.1))

        outcome = PrivacyOutcome(strategy_name)
        outcome.queries_upstream = resolver.upstream_queries - upstream_before
        for record in cdn.log[cdn_log_start:]:
            if record.src_ip != resolver_ip or not record.has_ecs:
                continue
            outcome.ecs_to_ecs_servers += 1
            outcome.client_bits_to_ecs_servers += \
                _count_client_bits(record, client_ip)
        for server, start in zip(plain_servers, plain_log_starts):
            for record in server.log[start:]:
                if record.src_ip != resolver_ip or not record.has_ecs:
                    continue
                outcome.ecs_to_plain_servers += 1
                outcome.client_bits_to_plain_servers += \
                    _count_client_bits(record, client_ip)
        outcomes.append(outcome)
    return PrivacyStudy(outcomes)
