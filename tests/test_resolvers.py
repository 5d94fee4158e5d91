"""Tests for the recursive resolver, forwarders, and the anycast service."""

import pytest

from repro.dnslib import EcsOption, Name, Rcode
from repro.faults import EcsStripSpec, FaultPlan
from repro.measure import StubClient
from repro.net import city
from repro.resolvers import (Forwarder, PublicDnsService, RecursiveResolver,
                             behaviors)

WWW = "www.example.com"
CDN_NAME = "video.cdn.example"


class TestRecursiveResolution:
    def test_resolves_static_zone(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, WWW)
        assert result.rcode == Rcode.NOERROR
        assert result.addresses == ["93.184.216.34"]

    def test_response_has_ra_and_not_aa(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, WWW)
        assert result.response.recursion_available
        assert not result.response.authoritative

    def test_nxdomain_propagates(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "no.example.com")
        assert result.rcode == Rcode.NXDOMAIN

    def test_cname_chased_across_zone(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "alias.example.com")
        assert "93.184.216.34" in result.addresses

    def test_second_query_served_from_cache(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, WWW)
        upstream_before = small_world.resolver.upstream_queries
        client.query(small_world.resolver_ip, WWW)
        assert small_world.resolver.upstream_queries == upstream_before
        assert small_world.resolver.cache.stats.hits >= 1

    def test_cache_expires_with_ttl(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, WWW)
        upstream_before = small_world.resolver.upstream_queries
        small_world.topology.clock.advance(301)  # zone default TTL is 300
        client.query(small_world.resolver_ip, WWW)
        assert small_world.resolver.upstream_queries > upstream_before

    def test_delegation_cache_skips_root(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, WWW)
        root_queries = small_world.net.stats.per_destination.get(
            small_world.hierarchy.root_ips[0], 0)
        client.query(small_world.resolver_ip, "other.example.com")
        assert small_world.net.stats.per_destination.get(
            small_world.hierarchy.root_ips[0], 0) == root_queries

    def test_closed_resolver_refuses_strangers(self, small_world):
        resolver_ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(resolver_ip, small_world.topology.clock,
                                     small_world.hierarchy.root_hints
                                     if hasattr(small_world.hierarchy,
                                                "root_hints")
                                     else small_world.hierarchy.root_ips,
                                     allowed_clients={"1.2.3.4"})
        small_world.net.attach(resolver)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(resolver_ip, WWW)
        assert result.rcode == Rcode.REFUSED

    def test_resolution_failure_raises_servfail_path(self, small_world):
        # Detach the only example.com server: resolution must not hang.
        zone_ip = None
        for ip, count in small_world.net.stats.per_destination.items():
            pass
        client = StubClient(small_world.client_ip, small_world.net)
        # Query an undelegated TLD: root returns NXDOMAIN (terminal).
        result = client.query(small_world.resolver_ip, "x.unknown-tld-zz.")
        assert result.rcode in (Rcode.NXDOMAIN, Rcode.SERVFAIL)


class TestResolverEcs:
    def test_sends_ecs_to_cdn(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, CDN_NAME)
        decision = small_world.cdn.decisions[-1]
        assert decision.hint_source == "ecs"
        # The hint is the /24 of the *client*, not the resolver.
        assert decision.hint.startswith(
            ".".join(small_world.client_ip.split(".")[:3]))

    def test_no_ecs_to_root_or_tld(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, CDN_NAME)
        root_log = small_world.hierarchy.root_server.log
        assert all(not r.has_ecs for r in root_log)

    def test_ecs_cache_split_by_scope(self, small_world):
        client_b = small_world.isp.host_in(city("Tokyo"))
        client1 = StubClient(small_world.client_ip, small_world.net)
        client2 = StubClient(client_b, small_world.net)
        client1.query(small_world.resolver_ip, CDN_NAME)
        queries_before = small_world.cdn.queries_received
        client2.query(small_world.resolver_ip, CDN_NAME)
        # Different /24 ⇒ scope-24 entry cannot be reused ⇒ CDN re-queried.
        assert small_world.cdn.queries_received > queries_before

    def test_same_subnet_clients_share_entry(self, small_world):
        sibling = small_world.client_ip.rsplit(".", 1)[0] + ".99"
        client1 = StubClient(small_world.client_ip, small_world.net)
        client2 = StubClient(sibling, small_world.net)
        client1.query(small_world.resolver_ip, CDN_NAME)
        queries_before = small_world.cdn.queries_received
        client2.query(small_world.resolver_ip, CDN_NAME)
        assert small_world.cdn.queries_received == queries_before

    def test_echoes_scope_to_ecs_client(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        ecs = EcsOption.from_client_address(small_world.client_ip, 24)
        result = client.query(small_world.resolver_ip, CDN_NAME, ecs=ecs)
        echoed = result.response.ecs()
        assert echoed is not None and echoed.matches_query(ecs)

    def test_client_ecs_overridden_by_default(self, small_world):
        # Anti-spoofing: foreign ECS is replaced by the sender address.
        client = StubClient(small_world.client_ip, small_world.net)
        foreign = EcsOption.from_client_address("16.99.99.0", 24)
        client.query(small_world.resolver_ip, CDN_NAME, ecs=foreign)
        hint = small_world.cdn.decisions[-1].hint
        assert not hint.startswith("16.99.99")

    def test_scope_ignoring_resolver_reuses_for_anyone(self, small_world):
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(ip, small_world.topology.clock,
                                     small_world.hierarchy.root_ips,
                                     policy=behaviors.SCOPE_IGNORER)
        small_world.net.attach(resolver)
        far_client = small_world.isp.host_in(city("Tokyo"))
        StubClient(small_world.client_ip, small_world.net).query(ip, CDN_NAME)
        before = small_world.cdn.queries_received
        StubClient(far_client, small_world.net).query(ip, CDN_NAME)
        assert small_world.cdn.queries_received == before

    def test_never_policy_sends_no_ecs(self, small_world):
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(ip, small_world.topology.clock,
                                     small_world.hierarchy.root_ips,
                                     policy=behaviors.NO_ECS)
        small_world.net.attach(resolver)
        StubClient(small_world.client_ip, small_world.net).query(ip, CDN_NAME)
        assert small_world.cdn.decisions[-1].hint_source == "resolver"

    def test_jammed_policy_reveals_32_bits(self, small_world):
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(ip, small_world.topology.clock,
                                     small_world.hierarchy.root_ips,
                                     policy=behaviors.JAMMED_LAST_BYTE)
        small_world.net.attach(resolver)
        StubClient(small_world.client_ip, small_world.net).query(ip, CDN_NAME)
        assert small_world.cdn.decisions[-1].hint.endswith(".1")

    def test_mismatched_response_ecs_discarded(self, small_world):
        # An authoritative echoing a *different* prefix must be ignored
        # (RFC 7871 section 7.3).
        from repro.auth.server import AuthoritativeServer
        from repro.dnslib import Zone

        class LyingServer(AuthoritativeServer):
            def handle_query(self, query, src_ip, net):
                resp = super().handle_query(query, src_ip, net)
                if query.ecs() is not None and resp is not None \
                        and resp.edns is not None:
                    resp.set_ecs(EcsOption.from_client_address(
                        "9.9.9.0", 24).response_to(24))
                return resp

        zone = Zone(Name.from_text("liar.example."))
        zone.add_soa()
        zone.add_text("www", "A", "203.0.113.66")
        ip = small_world.isp.host_in(city("Ashburn"))
        server = LyingServer(ip, [zone])
        small_world.net.attach(server)
        small_world.hierarchy.attach_authoritative(
            Name.from_text("liar.example."), ip)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "www.liar.example")
        assert result.addresses == ["203.0.113.66"]
        # Cached globally (option discarded), so any client gets a hit.
        far = StubClient(small_world.isp.host_in(city("Tokyo")),
                         small_world.net)
        before = server.queries_received
        far.query(small_world.resolver_ip, "www.liar.example")
        assert server.queries_received == before


class TestFormerrFallback:
    def test_retry_without_edns(self, small_world):
        from repro.auth.server import AuthoritativeServer
        from repro.dnslib import Zone
        zone = Zone(Name.from_text("old.example."))
        zone.add_soa()
        zone.add_text("www", "A", "203.0.113.77")
        ip = small_world.isp.host_in(city("Ashburn"))
        server = AuthoritativeServer(ip, [zone], supports_edns=False)
        small_world.net.attach(server)
        small_world.hierarchy.attach_authoritative(
            Name.from_text("old.example."), ip)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "www.old.example")
        assert result.addresses == ["203.0.113.77"]


class TestForwarder:
    def test_forwarding_transparent(self, small_world):
        fwd_ip = small_world.isp.host_in(city("Cleveland"))
        fwd = Forwarder(fwd_ip, [small_world.resolver_ip])
        small_world.net.attach(fwd)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(fwd_ip, WWW)
        assert result.addresses == ["93.184.216.34"]
        assert fwd.forwarded == 1

    def test_msg_id_preserved_for_client(self, small_world):
        fwd_ip = small_world.isp.host_in(city("Cleveland"))
        small_world.net.attach(Forwarder(fwd_ip, [small_world.resolver_ip]))
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(fwd_ip, WWW)
        assert result.response.msg_id is not None

    def test_strip_ecs(self, small_world):
        """An ECS-stripping middlebox between forwarder and resolver: the
        client's answer comes back without ECS."""
        fwd_ip = small_world.isp.host_in(city("Cleveland"))
        small_world.net.attach(Forwarder(fwd_ip, [small_world.resolver_ip]))
        strip = EcsStripSpec(probability=1.0, dst=small_world.resolver_ip)
        small_world.net.install_injector(FaultPlan("strip", (strip,)).bind(0))
        client = StubClient(small_world.client_ip, small_world.net)
        ecs = EcsOption.from_client_address("16.99.0.0", 24)
        result = client.query(fwd_ip, CDN_NAME, ecs=ecs)
        assert result.response.ecs() is None

    def test_dead_upstream_servfail(self, small_world):
        fwd_ip = small_world.isp.host_in(city("Cleveland"))
        fwd = Forwarder(fwd_ip, ["19.19.19.19"])
        small_world.net.attach(fwd)
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(fwd_ip, WWW)
        assert result.rcode == Rcode.SERVFAIL

    def test_upstream_failover(self, small_world):
        fwd_ip = small_world.isp.host_in(city("Cleveland"))
        fwd = Forwarder(fwd_ip, ["19.19.19.19", small_world.resolver_ip])
        small_world.net.attach(fwd)
        client = StubClient(small_world.client_ip, small_world.net)
        assert client.query(fwd_ip, WWW).addresses == ["93.184.216.34"]

    def test_chain_builder(self, small_world):
        hops = [small_world.isp.host_in(city("Cleveland")) for _ in range(3)]
        # hops[1:] play the hidden resolvers: each forwards to the next.
        for ip, upstream in zip(hops, hops[1:] + [small_world.resolver_ip]):
            small_world.net.attach(Forwarder(ip, [upstream]))
        client = StubClient(small_world.client_ip, small_world.net)
        assert client.query(hops[0], WWW).addresses == ["93.184.216.34"]

    def test_no_upstreams_rejected(self):
        with pytest.raises(ValueError):
            Forwarder("1.1.1.1", [])


class TestAnycastService:
    @pytest.fixture()
    def service(self, small_world):
        service_as = small_world.topology.create_as("pubdns", "US")
        return PublicDnsService(
            small_world.net, service_as, small_world.hierarchy.root_ips,
            frontend_cities=[city("Ashburn"), city("Frankfurt")],
            egress_city=city("Ashburn"), egress_count=2)

    def test_resolves_through_frontend(self, small_world, service):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(service.frontend_ips[0], WWW)
        assert result.addresses == ["93.184.216.34"]

    def test_frontend_adds_client_ecs(self, small_world, service):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(service.frontend_ips[0], CDN_NAME)
        hint = small_world.cdn.decisions[-1].hint
        assert hint.startswith(
            ".".join(small_world.client_ip.split(".")[:3]))

    def test_frontend_relays_scope_to_ecs_client(self, small_world,
                                                 service):
        """The authoritative scope for the client's own address reaches
        the front-end and, for a client that asked with ECS, the client."""
        client = StubClient(small_world.client_ip, small_world.net)
        ecs = EcsOption.from_client_address(small_world.client_ip, 24)
        result = client.query(service.frontend_ips[0], CDN_NAME, ecs=ecs)
        assert small_world.cdn.decisions[-1].hint.startswith(
            ".".join(small_world.client_ip.split(".")[:3]))
        assert result.response.ecs().scope_prefix_length == 24

    def test_sticky_egress_by_client_slash16(self, small_world, service):
        sibling = small_world.client_ip.rsplit(".", 1)[0] + ".77"
        fe = service.frontends[0]
        assert fe._egress_for(small_world.client_ip) == \
            fe._egress_for(sibling)

    def test_plain_client_gets_no_ecs_back(self, small_world, service):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(service.frontend_ips[0], WWW)
        assert result.response.ecs() is None
