"""Section 8.3 analysis: source prefix length vs mapping quality (Figs 6, 7).

The apparatus: ~800 Atlas-like probes worldwide; for each source prefix
length, the lab machine queries a CDN's authoritative directly with ECS
derived from each probe's address, and the probe TCP-connects to the first
returned edge (median of 3 attempts).  Two CDNs are modeled after the
paper's findings:

* **CDN-1** ignores ECS below /24 (Fig 6's cliff between 24 and 23);
* **CDN-2** ignores ECS below /21, returning a single resolver-mapped
  answer with scope 0 (Fig 7's cliff between 21 and 20).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..auth.cdn import CdnAuthoritative, build_edge_pools
from ..auth.hierarchy import DnsHierarchy
from ..datasets import paper_numbers as paper
from ..dnslib import EcsOption, Name, RecordType
from ..measure.atlas import AtlasPlatform
from ..measure.digclient import StubClient
from ..net.geo import city
from ..net.topology import Topology
from ..net.transport import Network
from .report import cdf_table
from .unroutable import EDGE_CITIES


@dataclass
class MappingQualityLab:
    """Two CDNs with different minimum-prefix thresholds plus probes."""

    net: Network
    topology: Topology
    lab_ip: str
    atlas: AtlasPlatform
    cdn1: CdnAuthoritative
    cdn2: CdnAuthoritative
    cdn1_qname: Name
    cdn2_qname: Name

    @classmethod
    def build(cls, probe_count: int = 200, seed: int = 0) -> "MappingQualityLab":
        topology = Topology()
        net = Network(topology, advance_clock=False)
        infra = topology.create_as("infra", "US")
        hierarchy = DnsHierarchy(net, infra)
        lab_as = topology.create_as("campus", "US")
        lab_ip = lab_as.host_in(city("Cleveland"))
        atlas = AtlasPlatform(net, probe_count=probe_count, seed=seed)

        def deploy(name: str, min_prefix: int, home: str) -> CdnAuthoritative:
            cdn_as = topology.create_as(name, "US", v4_prefixlen=12)
            pools = build_edge_pools(topology, cdn_as,
                                     [city(n) for n in EDGE_CITIES],
                                     addresses_per_pool=2)
            auth_ip = cdn_as.host_in(city(home))
            domain = Name.from_text(f"{name}.example.")
            cdn = CdnAuthoritative(auth_ip, [domain], pools, topology,
                                   whitelist=None,
                                   min_source_prefix_v4=min_prefix,
                                   answers_per_response=1)
            net.attach(cdn)
            hierarchy.attach_authoritative(domain, auth_ip)
            return cdn

        cdn1 = deploy("cdn1", paper.CDN1_MIN_PREFIX, "Ashburn")
        cdn2 = deploy("cdn2", paper.CDN2_MIN_PREFIX, "Toronto")
        return cls(net, topology, lab_ip, atlas, cdn1, cdn2,
                   Name.from_text("www.cdn1.example."),
                   Name.from_text("www.cdn2.example."))


@dataclass
class PrefixLengthSeries:
    """Fig 6/7 data for one CDN: per prefix length, latencies + answers."""

    latencies_ms: Dict[int, List[float]]
    unique_answers: Dict[int, int]
    scopes: Dict[int, List[int]]

    def median(self, prefix_len: int) -> float:
        values = sorted(self.latencies_ms[prefix_len])
        return values[len(values) // 2]

    def report(self, title: str) -> str:
        series = {f"/{L}": sorted(v) for L, v in
                  sorted(self.latencies_ms.items())}
        table = cdf_table(series, title=title)
        uniq = ", ".join(f"/{L}:{n}" for L, n in
                         sorted(self.unique_answers.items()))
        return f"{table}\nunique first answers per prefix length: {uniq}"


def measure_mapping_quality(lab: MappingQualityLab, cdn: CdnAuthoritative,
                            qname: Name,
                            prefix_lengths: Sequence[int] = tuple(range(16, 25)),
                            *, seed: int) -> PrefixLengthSeries:
    """Run the Fig 6/7 sweep for one CDN; ``seed`` seeds the handshake
    jitter (the CLI derives one per figure from ``--seed``)."""
    client = StubClient(lab.lab_ip, lab.net)
    rng = random.Random(seed)
    latencies: Dict[int, List[float]] = {L: [] for L in prefix_lengths}
    answers: Dict[int, set] = {L: set() for L in prefix_lengths}
    scopes: Dict[int, List[int]] = {L: [] for L in prefix_lengths}
    for L in prefix_lengths:
        for probe in lab.atlas.probes:
            ecs = EcsOption.from_client_address(probe.ip, L)
            result = client.query(cdn.ip, qname, RecordType.A, ecs=ecs)
            first = result.first_address
            if first is None:
                continue
            answers[L].add(first)
            if result.scope is not None:
                scopes[L].append(result.scope)
            latencies[L].append(probe.tcp_handshake_ms(lab.net, first,
                                                       rng=rng))
    return PrefixLengthSeries(latencies,
                              {L: len(a) for L, a in answers.items()},
                              scopes)


def crossover_prefix_length(series: PrefixLengthSeries) -> Optional[int]:
    """The longest prefix length at which mapping quality collapses.

    Scans downward from the longest measured length, one step between
    adjacent measured lengths at a time, and returns the shorter length
    of the first step across which the median latency jumps more than
    3x and the distinct first answers fall to 3 or fewer (the Fig 6/7
    cliff: below it the CDN ignores ECS and maps every probe to one
    resolver-near edge).  A slower median alone is no cliff: a CDN still
    using ECS at a length can hand out farther edges there.
    """
    lengths = [L for L in sorted(series.latencies_ms, reverse=True)
               if series.latencies_ms[L]]
    for longer, shorter in zip(lengths, lengths[1:]):
        if (series.median(shorter) > 3 * series.median(longer)
                and series.unique_answers[shorter] <= 3):
            return shorter
    return None
