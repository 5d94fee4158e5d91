"""The Scan universe: a wire-level model of the open-resolver ecosystem.

Unlike the statistical generators, this builder stands up an actual
simulated Internet — delegation hierarchy, the authors' experimental
authoritative nameserver, a major anycast public DNS service ("MegaDNS",
playing the paper's dominant public resolver), Chinese ISP resolvers with
jammed-/32 ECS, a long tail of other egress resolvers with the behavior mix
of sections 6.2/6.3/8.1, and a population of open ingress forwarders, half
of them chained through *hidden* resolvers.  The IPv4 scan
(:class:`repro.measure.scanner.Scanner`) then runs against it exactly as the
paper's scan ran against the real Internet.

Everything is deterministic in the builder's seed, and ground-truth tables
(which chains have hidden resolvers, which egress has which policy) ride
along so analyses can validate themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..auth.hierarchy import DnsHierarchy
from ..auth.scan_experiment import ScanExperimentServer
from ..core.cache import ScopeMode
from ..core.policies import EcsPolicy
from ..dnslib import Name
from ..net.geo import WORLD_CITIES, City, city
from ..net.topology import AutonomousSystem, Topology
from ..net.transport import Network
from ..obs import trace as _obs_trace
from ..resolvers import (Forwarder, PublicDnsService, RecursiveResolver,
                         behaviors)

#: Cities hosting the Chinese ISP resolvers (section 8.2 finds the
#: Beijing / Shanghai / Guangzhou triangle dominating the distances).
CHINESE_CITIES = ("Beijing", "Shanghai", "Guangzhou", "Chengdu")

#: Caching/prefix behavior mix for non-MegaDNS egress resolvers, scaled
#: from the paper's counts (section 6.3: 76 correct, 103 scope-ignoring,
#: 15 over-/24, 8 clamp-22, 1 private; section 8.1: loopback senders).
OTHER_EGRESS_MIX: Tuple[Tuple[str, int], ...] = (
    ("compliant", 8),
    ("accepts_client_ecs", 4),      # open, arbitrary-prefix amenable, correct
    ("scope_ignorer", 18),
    ("over_24_acceptor", 2),
    ("clamp_22", 1),
    ("private_prefix_sender", 1),
    ("loopback_32_sender", 2),
    ("link_local_sender", 1),
    ("prefix_25", 1),
    ("always_ecs", 2),              # /24, correct caching
    ("no_ecs", 10),                 # the non-adopting majority
)

#: Share of general ingress forwarders that resolve through MegaDNS.
MEGADNS_SHARE = 0.75
#: Share of general ingress chains with a hidden resolver in the middle.
HIDDEN_FRACTION = 0.5
#: Share of hidden resolvers placed over 6,000 km from their forwarder.
HIDDEN_FAR_FRACTION = 0.09
#: Share of hidden resolvers placed in their egress's city (§8.2's
#: on-diagonal, ECS-adds-nothing case), on the MP and non-MP paths alike.
HIDDEN_SAME_CITY_AS_EGRESS_FRACTION = 0.13


@dataclass
class ChainSpec:
    """Ground truth for one ingress resolution path."""

    forwarder_ip: str
    hidden_ips: Tuple[str, ...]
    egress_ip: str            # the IP the experiment server will see
    via_megadns: bool
    forwarder_city: str
    hidden_city: Optional[str]
    egress_city: str


@dataclass
class EgressSpec:
    """Ground truth for one non-MegaDNS egress resolver."""

    ip: str
    policy_name: str
    open_to_world: bool
    country: str
    city: str


@dataclass
class ScanUniverse:
    """The assembled simulated ecosystem."""

    net: Network
    topology: Topology
    hierarchy: DnsHierarchy
    domain: Name
    experiment_server: ScanExperimentServer
    megadns: PublicDnsService
    other_egress: List[RecursiveResolver]
    egress_specs: List[EgressSpec]
    chains: List[ChainSpec]
    scanner_ip: str

    @property
    def forwarder_ips(self) -> List[str]:
        return [c.forwarder_ip for c in self.chains]

    def egress_by_ip(self) -> Dict[str, RecursiveResolver]:
        return {r.ip: r for r in self.other_egress}

    def chains_by_egress(self) -> Dict[str, List[ChainSpec]]:
        """Every chain under its egress IP, in chain order."""
        grouped: Dict[str, List[ChainSpec]] = {}
        for chain in self.chains:
            grouped.setdefault(chain.egress_ip, []).append(chain)
        return grouped


class ScanUniverseBuilder:
    """Assembles a :class:`ScanUniverse`."""

    def __init__(self, seed: int = 0, ingress_count: int = 300):
        self.seed = seed
        self.ingress_count = ingress_count

    # -- pieces -----------------------------------------------------------

    def _build_megadns(self, net: Network, topology: Topology,
                       hierarchy: DnsHierarchy) -> PublicDnsService:
        service_as = topology.create_as("MegaDNS", "US")
        frontend_cities = [city(n) for n in
                           ("Ashburn", "Frankfurt", "Singapore", "Sao Paulo",
                            "Sydney", "Tokyo", "London", "Chicago")]
        return PublicDnsService(net, service_as, hierarchy.root_ips,
                                frontend_cities=frontend_cities,
                                egress_city=city("Ashburn"),
                                egress_count=8,
                                policy=EcsPolicy())

    def _build_other_egress(self, net: Network, topology: Topology,
                            hierarchy: DnsHierarchy, rng: random.Random
                            ) -> Tuple[List[RecursiveResolver], List[EgressSpec]]:
        resolvers: List[RecursiveResolver] = []
        specs: List[EgressSpec] = []
        chinese_as = [topology.create_as(f"ChinaISP-{i}", "CN")
                      for i in range(3)]
        other_as = [topology.create_as(f"RegionalISP-{i}",
                                       rng.choice(("US", "DE", "BR", "IN",
                                                   "RU", "JP")))
                    for i in range(5)]
        # Chinese ISP egress: jammed /32, scope-ignoring half the time.
        for i, as_ in enumerate(chinese_as):
            for j in range(3):
                where = city(CHINESE_CITIES[(i + j) % len(CHINESE_CITIES)])
                ip = as_.host_in(where)
                policy_name = "jammed_last_byte" if j % 2 == 0 \
                    else "scope_ignorer_jammed"
                policy = behaviors.JAMMED_LAST_BYTE if j % 2 == 0 else \
                    behaviors.JAMMED_LAST_BYTE.with_(
                        scope_handling=ScopeMode.IGNORE)
                resolver = RecursiveResolver(ip, net.clock, hierarchy.root_ips,
                                             policy=policy)
                net.attach(resolver)
                resolvers.append(resolver)
                specs.append(EgressSpec(ip, policy_name, open_to_world=False,
                                        country="CN", city=where.name))
        # The long tail with the paper's behavior mix.
        for policy_name, count in OTHER_EGRESS_MIX:
            for _ in range(count):
                as_ = rng.choice(other_as)
                where = self._city_for(as_, rng)
                ip = as_.host_in(where)
                policy = behaviors.PRESETS[policy_name]
                # The paper's 32 arbitrary-ECS resolvers (24 open + 8 via
                # ECS-passing forwarders) include the over-/24 and clamp-22
                # deviants; those policies accept client ECS here too.
                open_to_world = policy_name in ("accepts_client_ecs",
                                                "over_24_acceptor",
                                                "clamp_22",
                                                "compliant")
                resolver = RecursiveResolver(
                    ip, net.clock, hierarchy.root_ips, policy=policy,
                    allowed_clients=None)
                net.attach(resolver)
                resolvers.append(resolver)
                specs.append(EgressSpec(ip, policy_name, open_to_world,
                                        as_.country, where.name))
        return resolvers, specs

    @staticmethod
    def _nearest_frontends(megadns: PublicDnsService,
                           topology: Topology) -> Dict[City, str]:
        """Per registry city, the MegaDNS frontend nearest it (the first
        nearest in ``frontend_ips`` order)."""
        frontends = [(ip, topology.city_of(ip)) for ip in megadns.frontend_ips]
        return {c: min(frontends, key=lambda fe: c.distance_km(fe[1]))[0]
                for c in WORLD_CITIES}

    # -- assembly ------------------------------------------------------------

    def build(self) -> ScanUniverse:
        tracer = _obs_trace.ACTIVE
        if tracer is None:
            return self._assemble()
        with tracer.span("build", ingress=self.ingress_count):
            return self._assemble()

    def _assemble(self) -> ScanUniverse:
        rng = random.Random(self.seed)
        topology = Topology()
        net = Network(topology, rng=random.Random(self.seed + 1))
        infra_as = topology.create_as("infra", "US")
        hierarchy = DnsHierarchy(net, infra_as)

        domain = Name.from_text("scan-exp.example.")
        exp_as = topology.create_as("experiment", "US")
        exp_ip = exp_as.host_in(city("Cleveland"))
        exp_server = ScanExperimentServer(exp_ip, domain,
                                          answer_address="203.0.113.80")
        net.attach(exp_server)
        hierarchy.attach_authoritative(domain, exp_ip)
        scanner_ip = exp_as.host_in(city("Cleveland"))

        megadns = self._build_megadns(net, topology, hierarchy)
        nearest_frontend = self._nearest_frontends(megadns, topology)
        megadns_egress = megadns.egress_ips[0]
        other_egress, egress_specs = self._build_other_egress(
            net, topology, hierarchy, rng)

        eyeball_as = [topology.create_as(f"Eyeball-{i}",
                                         rng.choice(("US", "DE", "BR", "IN",
                                                     "CN", "JP", "FR", "RU",
                                                     "GB", "ZA", "AU", "CL",
                                                     "KR", "MX", "TR", "ID")))
                      for i in range(24)]
        hidden_as = topology.create_as("HiddenHosting", "US")

        chains: List[ChainSpec] = []
        # One deterministic /16-sibling forwarder pair for every closed
        # egress (the section 6.3 paired-forwarder technique needs them).
        for spec in egress_specs:
            as_ = rng.choice(eyeball_as)
            where = self._city_for(as_, rng)
            for _sibling in range(2):
                fwd_ip = as_.host_in_new_subnet(where)
                fwd = Forwarder(fwd_ip, [spec.ip])
                net.attach(fwd)
                chains.append(ChainSpec(
                    fwd_ip, (), spec.ip, False, where.name, None,
                    self._city_name(topology, spec.ip)))
        # Paired hidden-resolver forwarders behind MegaDNS (section 6.3's
        # third technique) — two hidden resolvers in sibling /24s.
        for _ in range(2):
            as_ = rng.choice(eyeball_as)
            where = self._city_for(as_, rng)
            for _sibling in range(2):
                hid_ip = hidden_as.host_in_new_subnet(where)
                fe_ip = nearest_frontend[where]
                hidden = Forwarder(hid_ip, [fe_ip])
                net.attach(hidden)
                fwd_ip = as_.host_in_new_subnet(where)
                fwd = Forwarder(fwd_ip, [hid_ip])
                net.attach(fwd)
                chains.append(ChainSpec(
                    fwd_ip, (hid_ip,), megadns_egress, True,
                    where.name, where.name, "Ashburn"))

        # Some open ingress resolvers (8%, at least one) are themselves
        # recursive resolvers (ingress == egress), as the paper notes; the
        # scan sees their own IP at the authoritative server.
        ingress_as_egress = max(1, int(self.ingress_count * 0.08))
        for _ in range(ingress_as_egress):
            as_ = rng.choice(eyeball_as)
            where = self._city_for(as_, rng)
            ip = as_.host_in(where)
            policy = behaviors.PRESETS[
                rng.choice(("compliant", "no_ecs", "always_ecs"))]
            resolver = RecursiveResolver(ip, net.clock, hierarchy.root_ips,
                                         policy=policy)
            net.attach(resolver)
            chains.append(ChainSpec(ip, (), ip, False, where.name, None,
                                    where.name))

        # The general ingress population.
        for _ in range(self.ingress_count):
            as_ = rng.choice(eyeball_as)
            where = self._city_for(as_, rng)
            fwd_ip = as_.host_in(where)
            via_megadns = rng.random() < MEGADNS_SHARE
            hidden_ips: Tuple[str, ...] = ()
            hidden_city: Optional[str] = None

            if via_megadns:
                egress_ip = megadns_egress
                egress_city = "Ashburn"
            else:
                spec = rng.choice(egress_specs)
                egress_ip = spec.ip
                egress_city = spec.city

            next_hop: str
            if rng.random() < HIDDEN_FRACTION:
                hidden_where = self._hidden_city(where, egress_city, rng)
                hid_ip = hidden_as.host_in(hidden_where)
                hidden_ips = (hid_ip,)
                hidden_city = hidden_where.name
                if via_megadns:
                    upstream = nearest_frontend[hidden_where]
                else:
                    upstream = egress_ip
                hidden = Forwarder(hid_ip, [upstream])
                net.attach(hidden)
                next_hop = hid_ip
            else:
                next_hop = (nearest_frontend[where] if via_megadns
                            else egress_ip)

            fwd = Forwarder(fwd_ip, [next_hop])
            net.attach(fwd)
            chains.append(ChainSpec(fwd_ip, hidden_ips, egress_ip,
                                    via_megadns, where.name, hidden_city,
                                    egress_city))

        return ScanUniverse(net, topology, hierarchy, domain, exp_server,
                            megadns, other_egress, egress_specs, chains,
                            scanner_ip)

    # -- placement helpers ---------------------------------------------------

    @staticmethod
    def _city_name(topology: Topology, ip: str) -> str:
        c = topology.city_of(ip)
        return c.name if c else "?"

    @staticmethod
    def _city_for(as_: AutonomousSystem, rng: random.Random) -> City:
        return rng.choice(_city_tables()[0].get(as_.country, WORLD_CITIES))

    @staticmethod
    def _hidden_city(forwarder_city: City, egress_city_name: str,
                     rng: random.Random) -> City:
        """Place a hidden resolver relative to its forwarder.

        Most hidden resolvers sit near their forwarders; a slice
        (:data:`HIDDEN_FAR_FRACTION`) lands far away (the
        Santiago-forwarder/Italy-hidden pattern), and a small slice
        shares the egress's city (the on-diagonal, ECS-adds-nothing case).
        """
        _, near, far = _city_tables()
        roll = rng.random()
        if roll < HIDDEN_FAR_FRACTION:
            return rng.choice(far[forwarder_city] or WORLD_CITIES)
        if roll < HIDDEN_FAR_FRACTION + HIDDEN_SAME_CITY_AS_EGRESS_FRACTION:
            try:
                return city(egress_city_name)
            except KeyError:
                return forwarder_city
        return rng.choice(near[forwarder_city] or (forwarder_city,))


@lru_cache(maxsize=None)
def _city_tables() -> Tuple[dict, dict, dict]:
    """The placement tables over the fixed city registry, built on first
    use: the cities of each country, and per city those under 1,500 km
    and over 6,000 km away, each a tuple in registry order."""
    def ring(keep) -> Dict[City, Tuple[City, ...]]:
        return {origin: tuple(c for c in WORLD_CITIES
                              if keep(c.point.distance_km(origin.point)))
                for origin in WORLD_CITIES}
    countries = dict.fromkeys(c.country for c in WORLD_CITIES)
    return ({country: tuple(c for c in WORLD_CITIES if c.country == country)
             for country in countries},
            ring(lambda km: km < 1500), ring(lambda km: km > 6000))
