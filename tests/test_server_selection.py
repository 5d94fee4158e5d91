"""Tests for RTT-based nameserver selection in the recursive resolver."""

import pytest

from repro.auth import AuthoritativeServer
from repro.dnslib import Name, Zone
from repro.faults import QUERY, FaultPlan, PacketLossSpec
from repro.measure import StubClient
from repro.net import Network, Topology, city
from repro.resolvers import RecursiveResolver
from repro.auth.hierarchy import DnsHierarchy


@pytest.fixture()
def dual_ns_world():
    """example.net served by two nameservers: one near, one far."""
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    hierarchy = DnsHierarchy(net, infra)

    zone = Zone(Name.from_text("example.net"))
    zone.add_soa()
    zone.add_text("www", "A", "203.0.113.1")
    near_ip = infra.host_in(city("Cleveland"))
    far_ip = infra.host_in(city("Sydney"))
    for ip in (near_ip, far_ip):
        net.attach(AuthoritativeServer(ip, [zone]))
    # Delegate with the FAR server listed first.
    hierarchy.delegate(Name.from_text("example.net"), [far_ip, near_ip])

    isp = topology.create_as("isp", "US")
    resolver_ip = isp.host_in(city("Cleveland"))
    resolver = RecursiveResolver(resolver_ip, topology.clock,
                                 hierarchy.root_ips)
    net.attach(resolver)
    client = StubClient(isp.host_in(city("Cleveland")), net)
    return net, resolver, client, near_ip, far_ip


class TestServerSelection:
    def _exercise(self, net, resolver, client, rounds=6):
        for i in range(rounds):
            client.query(resolver.ip, f"www.example.net")
            net.clock.advance(301)  # expire the answer, keep delegations

    def test_rtts_learned_for_both_servers(self, dual_ns_world):
        net, resolver, client, near_ip, far_ip = dual_ns_world
        self._exercise(net, resolver, client, rounds=3)
        assert near_ip in resolver._srtt and far_ip in resolver._srtt
        assert resolver._srtt[near_ip] < resolver._srtt[far_ip]

    def test_prefers_near_server_after_learning(self, dual_ns_world):
        net, resolver, client, near_ip, far_ip = dual_ns_world
        self._exercise(net, resolver, client, rounds=4)
        near_before = net.stats.per_destination.get(near_ip, 0)
        far_before = net.stats.per_destination.get(far_ip, 0)
        self._exercise(net, resolver, client, rounds=5)
        near_delta = net.stats.per_destination[near_ip] - near_before
        far_delta = net.stats.per_destination.get(far_ip, 0) - far_before
        assert near_delta >= 5
        assert far_delta == 0

    def test_unresponsive_server_demoted(self, dual_ns_world):
        net, resolver, client, near_ip, far_ip = dual_ns_world
        # Make the near server unresponsive before anything is learned.
        net.install_injector(FaultPlan("near-down", (
            PacketLossSpec(1.0, dst=near_ip, direction=QUERY),)).bind(0))
        self._exercise(net, resolver, client, rounds=2)
        assert resolver._srtt.get(near_ip, 0) >= net.TIMEOUT_MS * 0.5
        # Resolution still succeeded via the far server.
        result = client.query(resolver.ip, "www.example.net")
        assert result.addresses == ["203.0.113.1"]

    def test_ordering_explores_unknown_first(self, dual_ns_world):
        net, resolver, client, near_ip, far_ip = dual_ns_world
        resolver._srtt["1.1.1.1"] = 50.0
        ordered = resolver._order_nameservers(["1.1.1.1", "9.9.9.9"])
        assert ordered[0] == "9.9.9.9"
