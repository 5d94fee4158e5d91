"""End-to-end integration scenarios spanning multiple subsystems."""

from repro.core.cache import ScopeMode
from repro.dnslib import Name, Rcode, RecordType
from repro.measure import StubClient
from repro.net import city, same_prefix
from repro.resolvers import Forwarder, RecursiveResolver, behaviors


class TestFullResolutionPath:
    def test_client_forwarder_hidden_egress_auth(self, small_world):
        """A four-hop chain resolves correctly and the CDN sees the hidden
        resolver's subnet in ECS — the section 8.2 mechanism."""
        isp = small_world.isp
        hidden_ip = isp.host_in(city("Zurich"))
        fwd_ip = isp.host_in(city("Cleveland"))
        small_world.net.attach(Forwarder(hidden_ip,
                                         [small_world.resolver_ip]))
        small_world.net.attach(Forwarder(fwd_ip, [hidden_ip]))
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(fwd_ip, "video.cdn.example")
        assert result.addresses
        hint = small_world.cdn.last_decision.hint
        assert same_prefix(hint, hidden_ip, 24)
        # Mapping follows the hidden resolver's location (Zurich), not the
        # client's (Cleveland): ECS as an obstacle.
        assert small_world.cdn.last_decision.pool.city.name == "Zurich"

    def test_ttl_expiry_forces_full_path_again(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, "video.cdn.example")
        first_count = small_world.cdn.queries_received
        small_world.topology.clock.advance(5)
        client.query(small_world.resolver_ip, "video.cdn.example")
        assert small_world.cdn.queries_received == first_count
        small_world.topology.clock.advance(21)  # CDN TTL is 20 s
        client.query(small_world.resolver_ip, "video.cdn.example")
        assert small_world.cdn.queries_received == first_count + 1

    def test_wire_level_fidelity(self, small_world):
        """The whole path works through actual wire encoding: a raw packet
        crafted by hand resolves end-to-end."""
        from repro.dnslib import Message, decode_message, encode_message
        query = Message.make_query(Name.from_text("www.example.com"),
                                   RecordType.A, msg_id=4242)
        wire = encode_message(query)
        resolver = small_world.net.endpoint_at(small_world.resolver_ip)
        response_wire = resolver.handle_datagram(wire,
                                                 small_world.client_ip,
                                                 small_world.net)
        response = decode_message(response_wire)
        assert response.msg_id == 4242
        assert response.answer_addresses() == ["93.184.216.34"]


class TestProbingObservedAtAuthoritative:
    def test_interval_loopback_pattern_observable(self, small_world):
        """Drive a loopback-probing resolver for simulated hours and
        recover the pattern from the CDN-side log, as section 6.1 does."""
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(
            ip, small_world.topology.clock, small_world.hierarchy.root_ips,
            policy=behaviors.INTERVAL_LOOPBACK_PROBER.with_(
                scope_handling=ScopeMode.IGNORE))
        small_world.net.attach(resolver)
        client = StubClient(small_world.client_ip, small_world.net)
        clock = small_world.topology.clock
        zone_server_log = None
        for step in range(8):
            client.query(ip, "www.example.com")
            clock.advance(900)
        # Find the example.com authoritative log via the hierarchy.
        for endpoint_ip, count in small_world.net.stats.per_destination.items():
            endpoint = small_world.net.endpoint_at(endpoint_ip)
            if endpoint is None or not hasattr(endpoint, "log"):
                continue
            if any(r.qname == "www.example.com." for r in endpoint.log):
                zone_server_log = [r for r in endpoint.log
                                   if r.src_ip == ip]
        assert zone_server_log
        ecs_records = [r for r in zone_server_log if r.has_ecs]
        assert ecs_records
        assert all(r.ecs_address == "127.0.0.1" for r in ecs_records)

    def test_hostname_prober_bypasses_cache(self, small_world):
        probe_name = Name.from_text("www.example.com")
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(
            ip, small_world.topology.clock, small_world.hierarchy.root_ips,
            policy=behaviors.HOSTNAME_PROBER.with_(
                probe_hostnames=frozenset({probe_name})))
        small_world.net.attach(resolver)
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(ip, "www.example.com")
        upstream_after_first = resolver.upstream_queries
        client.query(ip, "www.example.com")  # within TTL, still goes up
        assert resolver.upstream_queries > upstream_after_first


class TestScanToAnalysisPipeline:
    def test_scan_records_feed_table1_and_hidden(self, scan_universe,
                                                 scan_result):
        from repro.analysis import (analyze_hidden_resolvers, build_table1,
                                    scan_prefix_profiles)
        profiles = scan_prefix_profiles(scan_result)
        assert profiles
        table = build_table1(scan_result=scan_result)
        assert sum(table.scan_counts.values()) == len(profiles)
        hidden = analyze_hidden_resolvers(scan_universe, scan_result)
        # Every validated prefix comes from the ground-truth hidden set.
        truth = {c.hidden_ips[0] for c in scan_universe.chains
                 if c.hidden_ips}
        for prefix in hidden.validated_prefixes:
            base = prefix.split("/")[0]
            assert any(same_prefix(base, h, 24) for h in truth)

    def test_rescan_is_reproducible(self):
        from repro.datasets import ScanUniverseBuilder
        from repro.measure import Scanner
        results = []
        for _ in range(2):
            universe = ScanUniverseBuilder(seed=21, ingress_count=25).build()
            result = Scanner(universe).scan()
            results.append([(r.ingress_ip, r.egress_ip, r.ecs_address)
                            for r in result.records])
        assert results[0] == results[1]


class TestCacheConsistencyAcrossStack:
    def test_resolver_cache_agrees_with_scope_semantics(self, small_world):
        """Answers cached under scope 16 are shared across /24s but not
        across /16s, verified through the live CDN path."""
        small_world.cdn.scope_v4 = 16
        clients = {
            "same16": small_world.client_ip.split(".")[0] + "." +
                      small_world.client_ip.split(".")[1] + ".250.9",
        }
        client_a = StubClient(small_world.client_ip, small_world.net)
        client_a.query(small_world.resolver_ip, "video.cdn.example")
        count = small_world.cdn.queries_received
        # Same /16, different /24: hit under scope 16.
        StubClient(clients["same16"], small_world.net).query(
            small_world.resolver_ip, "video.cdn.example")
        assert small_world.cdn.queries_received == count

    def test_servfail_not_cached(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        # An undelegated name under a delegated TLD yields NXDOMAIN from
        # the TLD server; NXDOMAIN responses may be cached, SERVFAIL not.
        result = client.query(small_world.resolver_ip, "x.ghost.example.")
        assert result.rcode in (Rcode.NXDOMAIN, Rcode.SERVFAIL)
