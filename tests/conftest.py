"""Shared fixtures: small worlds and datasets reused across test modules.

Session-scoped fixtures are read-only from the tests' point of view; any
test that mutates state builds its own instance.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.analysis.cache_sim import (ReplayPartial, merge_partials,
                                      replay_partial)
from repro.auth import CdnAuthoritative, DnsHierarchy, build_edge_pools
from repro.datasets import (AllNamesBuilder, CdnDatasetBuilder,
                            PublicCdnBuilder, ScanUniverseBuilder)
from repro.datasets.columnar import ColumnarStore
from repro.dnslib import Name, Zone
from repro.engine.replay import ACCESSORS
from repro.engine.sharding import partition_by_key
from repro.measure import Scanner
from repro.net import Network, Topology, city
from repro.resolvers import RecursiveResolver
from repro.resolvers.behaviors import COMPLIANT


@pytest.fixture()
def small_world():
    """A minimal resolvable world: hierarchy + one zone + one CDN +
    a compliant resolver and a client, all in known cities."""
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    hierarchy = DnsHierarchy(net, infra)

    zone = Zone(Name.from_text("example.com"))
    zone.add_soa()
    zone.add_text("www", "A", "93.184.216.34")
    zone.add_text("alias", "CNAME", "www")
    hierarchy.host_zone(zone, city("Ashburn"))

    cdn_as = topology.create_as("cdn", "US")
    pools = build_edge_pools(topology, cdn_as,
                             [city("Chicago"), city("Zurich"),
                              city("Tokyo"), city("Johannesburg")])
    cdn_ip = cdn_as.host_in(city("Ashburn"))
    cdn = CdnAuthoritative(cdn_ip, [Name.from_text("cdn.example.")],
                           pools, topology)
    net.attach(cdn)
    hierarchy.attach_authoritative(Name.from_text("cdn.example."), cdn_ip)

    isp = topology.create_as("isp", "US")
    resolver_ip = isp.host_in(city("Cleveland"))
    resolver = RecursiveResolver(resolver_ip, topology.clock,
                                 hierarchy.root_ips, policy=COMPLIANT)
    net.attach(resolver)
    client_ip = isp.host_in(city("Cleveland"))

    class World:
        pass

    world = World()
    world.topology = topology
    world.net = net
    world.hierarchy = hierarchy
    world.zone = zone
    world.cdn = cdn
    world.resolver = resolver
    world.resolver_ip = resolver_ip
    world.client_ip = client_ip
    world.isp = isp
    return world


@pytest.fixture(scope="session")
def scan_universe():
    """A mid-sized scan universe shared by read-only analyses."""
    return ScanUniverseBuilder(seed=11, ingress_count=150).build()


@pytest.fixture(scope="session")
def scan_result(scan_universe):
    return Scanner(scan_universe).scan()


@pytest.fixture(scope="session")
def cdn_dataset():
    return CdnDatasetBuilder(scale=0.01, seed=4, duration_s=4 * 3600.0).build()


@pytest.fixture(scope="session")
def allnames_dataset():
    return AllNamesBuilder(scale=0.25, seed=4).build()


@pytest.fixture(scope="session")
def public_cdn_dataset():
    return PublicCdnBuilder(scale=0.004, seed=4,
                            duration_s=1200.0).build()


@pytest.fixture(scope="session")
def allnames_store(allnames_dataset):
    return ColumnarStore.from_records(allnames_dataset.records, "allnames")


@pytest.fixture(scope="session")
def public_cdn_store(public_cdn_dataset):
    return ColumnarStore.from_records(public_cdn_dataset.records,
                                      "public-cdn")


@pytest.fixture(scope="session")
def oracle_replay():
    """``(records, kind, shards) -> ReplayResult`` by the readable oracle.

    What every sharded replay must equal: the ``ScopeTracker``-based
    ``replay_partial`` over each qname bucket, merged.  It shares no
    code with the ``ReplayKernel`` lanes it is compared against.
    """
    def replay(records, kind, shards):
        return merge_partials(
            replay_partial(bucket, *ACCESSORS[kind])
            for bucket in partition_by_key(records, shards,
                                           lambda r: r.qname))
    return replay


@pytest.fixture(scope="session")
def replay_spans():
    """``spans -> [ReplayPartial]``: the outcome each ``replay`` span
    records, one per shard in shard order."""
    def partials(spans):
        return [ReplayPartial(**{field.name: span.attrs[field.name]
                                 for field in fields(ReplayPartial)})
                for span in spans if span.name == "replay"]
    return partials
