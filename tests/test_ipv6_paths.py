"""IPv6 end-to-end coverage: AAAA resolution, /56 truncation, /48 scopes,
and the IPv4-only experimental server's IPv6 blind spot (section 5)."""

import pytest

from repro.auth import CdnAuthoritative, EdgePool
from repro.dnslib import EcsOption, Name, RecordType
from repro.measure import StubClient
from repro.net import Network, Topology, city


@pytest.fixture()
def v6_world(small_world):
    """Extend the small world with AAAA records and v6 edge pools."""
    small_world.zone.add_text("www6", "AAAA", "2001:4860:4860::8888")
    v6_client = small_world.isp.host6_in(city("Cleveland"))
    return small_world, v6_client


class TestAaaaResolution:
    def test_resolves_aaaa(self, v6_world):
        world, v6_client = v6_world
        client = StubClient(world.client_ip, world.net)
        result = client.query(world.resolver_ip, "www6.example.com",
                              RecordType.AAAA)
        assert result.addresses == ["2001:4860:4860::8888"]

    def test_v6_client_ecs_truncated_to_56(self, v6_world):
        world, v6_client = v6_world
        client = StubClient(v6_client, world.net)
        client.query(world.resolver_ip, "video.cdn.example")
        decision = world.cdn.last_decision
        assert decision.hint_source == "ecs"
        # The hint is the /56-truncated client address: low 8 bytes zero.
        assert decision.hint.endswith("::")

    def test_v6_scope_keyed_cache(self, v6_world):
        world, v6_client = v6_world
        # Same /48 → shared entry; different /48 → miss.
        sibling = v6_client.rsplit(":", 1)[0] + ":beef"
        StubClient(v6_client, world.net).query(world.resolver_ip,
                                               "video.cdn.example")
        count = world.cdn.queries_received
        StubClient(sibling, world.net).query(world.resolver_ip,
                                             "video.cdn.example")
        assert world.cdn.queries_received == count
        other_48 = world.isp.host6_in(city("Tokyo"))
        StubClient(other_48, world.net).query(world.resolver_ip,
                                              "video.cdn.example")
        assert world.cdn.queries_received == count + 1


class TestV6EcsOptionPaths:
    def test_v6_ecs_family_2_on_wire(self):
        opt = EcsOption.from_client_address("2600:1:2::9", 56)
        wire = opt.to_wire()
        assert wire[0] == 0 and wire[1] == 2  # family 2
        assert EcsOption.from_wire(wire).family == 2

    def test_v6_scope_echo_capped(self, v6_world):
        world, v6_client = v6_world
        client = StubClient(world.client_ip, world.net)
        ecs = EcsOption.from_client_address("2600:aa:bb::1", 40)
        result = client.query(world.cdn.ip, "video.cdn.example",
                              RecordType.A, ecs=ecs, recursion_desired=False)
        assert result.scope is not None and result.scope <= 40

    def test_v4_server_handles_v6_family(self):
        """The CDN maps on v6 hints via the geo DB like any other."""
        topology = Topology()
        net = Network(topology)
        cdn_as = topology.create_as("cdn", "US")
        pools = [EdgePool(city("Chicago"),
                          (cdn_as.host_in(city("Chicago")),)),
                 EdgePool(city("Tokyo"),
                          (cdn_as.host_in(city("Tokyo")),))]
        cdn_ip = cdn_as.host_in(city("Ashburn"))
        cdn = CdnAuthoritative(cdn_ip, [Name.from_text("c.example.")],
                               pools, topology)
        net.attach(cdn)
        tokyo_v6 = cdn_as.host6_in(city("Tokyo"))
        client = StubClient(cdn_as.host_in(city("Chicago")), net)
        ecs = EcsOption.from_client_address(tokyo_v6, 56)
        client.query(cdn_ip, "www.c.example", RecordType.A, ecs=ecs)
        assert cdn.last_decision.pool.city.name == "Tokyo"


class TestV6BlindSpot:
    def test_v6_resolvers_invisible_to_v4_scan(self, cdn_dataset):
        """Section 5: the experimental server is IPv4-only, so IPv6
        resolvers appear in the CDN dataset but can never be discovered by
        the scan — one cause of the passive/active gap."""
        v6_specs = [s for s in cdn_dataset.resolvers if s.is_v6]
        assert v6_specs, "the CDN dataset contains IPv6 resolvers"
        # The scan universe only probes IPv4 forwarders by construction.
        from repro.auth.scan_experiment import encode_probe_name
        with pytest.raises(Exception):
            encode_probe_name("2600::1", Name.from_text("scan.example."))
