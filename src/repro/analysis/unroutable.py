"""Section 8.1 analysis: non-routable ECS prefixes (Table 2).

Reproduces the paper's five-query experiment: from a Cleveland lab machine,
query a Google-like CDN authoritative directly with (1) no ECS, (2) ECS
matching the lab machine's /24, and (3–5) the three unroutable prefixes the
misbehaving resolvers actually send — 127.0.0.1/32, 127.0.0.0/24 and
169.254.252.0/24 — then ping the first returned edge address 8 times and
geolocate it.  A literal-lookup authoritative maps the unroutable prefixes
to arbitrary far-away edges; the RFC-compliant fallback maps them like the
resolver's own address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..auth.cdn import CdnAuthoritative, UnroutablePolicy, build_edge_pools
from ..auth.hierarchy import DnsHierarchy
from ..datasets import paper_numbers as paper
from ..dnslib import EcsOption, Name, RecordType
from ..measure.digclient import StubClient
from ..net.geo import city
from ..net.topology import Topology
from ..net.transport import Network
from .report import format_table

#: The ECS variants of Table 2, in paper order.
TABLE2_VARIANTS: Tuple[Tuple[str, Optional[Tuple[str, int]]], ...] = (
    ("none", None),
    ("/24 of src addr", ("lab", 24)),
    ("127.0.0.1/32", ("127.0.0.1", 32)),
    ("127.0.0.0/24", ("127.0.0.0", 24)),
    ("169.254.252.0/24", ("169.254.252.0", 24)),
)

#: Edge cities for the Google-like CDN (includes every Table 2 location).
EDGE_CITIES = ("Chicago", "New York", "Ashburn", "Dallas", "Los Angeles",
               "Mountain View", "Toronto", "London", "Paris", "Zurich",
               "Frankfurt", "Stockholm", "Moscow", "Johannesburg",
               "Cape Town", "Mumbai", "Singapore", "Tokyo", "Sydney",
               "Sao Paulo", "Santiago", "Seoul", "Hong Kong")


@dataclass
class Table2Row:
    """One measured row of Table 2."""

    ecs_prefix: str
    first_answer: Optional[str]
    rtt_ms: Optional[float]
    location: Optional[str]
    answers: List[str]


@dataclass
class UnroutableLab:
    """The Table 2 apparatus: lab machine + Google-like CDN authoritative."""

    net: Network
    topology: Topology
    lab_ip: str
    cdn: CdnAuthoritative
    qname: Name

    @classmethod
    def build(cls, seed: int = 0,
              unroutable_policy: UnroutablePolicy = UnroutablePolicy.LITERAL
              ) -> "UnroutableLab":
        topology = Topology()
        net = Network(topology)
        infra = topology.create_as("infra", "US")
        hierarchy = DnsHierarchy(net, infra)
        lab_as = topology.create_as("campus", "US")
        lab_ip = lab_as.host_in(city("Cleveland"))

        cdn_as = topology.create_as("google-like", "US", v4_prefixlen=12)
        pools = build_edge_pools(topology, cdn_as,
                                 [city(n) for n in EDGE_CITIES],
                                 addresses_per_pool=16)
        cdn_ip = cdn_as.host_in(city("Mountain View"))
        qname = Name.from_text("www.video-site.example.")
        cdn = CdnAuthoritative(
            cdn_ip, [Name.from_text("video-site.example.")], pools, topology,
            whitelist=None, unroutable_policy=unroutable_policy,
            answers_per_response=16, scope_v4=24)
        net.attach(cdn)
        hierarchy.attach_authoritative(Name.from_text("video-site.example."),
                                       cdn_ip)
        return cls(net, topology, lab_ip, cdn, qname)


@dataclass
class Table2:
    """All five rows plus the overlap checks the paper makes."""

    rows: List[Table2Row]
    routable_answers_identical: bool
    unroutable_answers_disjoint: bool

    def row(self, prefix: str) -> Table2Row:
        for r in self.rows:
            if r.ecs_prefix == prefix:
                return r
        raise KeyError(prefix)

    def report(self) -> str:
        body = []
        for r in self.rows:
            paper_loc, paper_rtt = paper.TABLE2_ROWS.get(r.ecs_prefix,
                                                         (None, None))
            body.append((r.ecs_prefix, r.first_answer, r.rtt_ms, r.location,
                         paper_loc, paper_rtt))
        return format_table(
            ("ECS prefix", "first answer", "RTT (ms)", "location",
             "paper location", "paper RTT"),
            body, title="Table 2 — responses to unroutable ECS prefixes")


def run_table2(lab: UnroutableLab) -> Table2:
    """Issue the five dig queries and ping each returned edge 8 times."""
    client = StubClient(lab.lab_ip, lab.net)
    rows: List[Table2Row] = []
    answer_sets: Dict[str, frozenset] = {}
    for label, spec in TABLE2_VARIANTS:
        ecs = None
        if spec is not None:
            address, bits = spec
            if address == "lab":
                address = lab.lab_ip
            ecs = EcsOption.from_client_address(address, bits)
        result = client.query(lab.cdn.ip, lab.qname, RecordType.A, ecs=ecs,
                              recursion_desired=False)
        answers = result.addresses
        answer_sets[label] = frozenset(answers)
        first = result.first_address
        rtt = lab.net.ping_ms(lab.lab_ip, first, 8) if first else None
        where = lab.topology.city_of(first) if first else None
        rows.append(Table2Row(label, first, rtt,
                              where.name if where else None, answers))

    routable_same = answer_sets["none"] == answer_sets["/24 of src addr"]
    unroutable = [answer_sets[k] for k in ("127.0.0.1/32", "127.0.0.0/24",
                                           "169.254.252.0/24")]
    routable = answer_sets["none"]
    disjoint = all(not (u & routable) for u in unroutable) and \
        not (unroutable[0] & unroutable[1]) and \
        not (unroutable[0] & unroutable[2]) and \
        not (unroutable[1] & unroutable[2])
    return Table2(rows, routable_same, disjoint)
