"""Tests for authoritative servers: static zones, the CDN, the scan
experiment server, and the delegation hierarchy."""

import pytest

from repro.analysis.unroutable import EDGE_CITIES
from repro.auth import (AuthoritativeServer, CdnAuthoritative, DnsHierarchy,
                        EdgePool, ScanExperimentServer, UnroutablePolicy,
                        build_edge_pools, decode_probe_name,
                        encode_probe_name, fixed_scope, source_minus)
from repro.dnslib import EcsOption, Message, Name, Rcode, RecordType, Zone
from repro.auth.cdn import MappingDecision, _hash_index
from repro.auth.scan_experiment import ScanQueryRecord
from repro.net import Network, Topology, city
from repro.net.geo import WORLD_CITIES

from wire_strategies import bad_ecs_family_query, overlong_qname_query


@pytest.fixture()
def world():
    topology = Topology()
    net = Network(topology)
    infra = topology.create_as("infra", "US")
    return topology, net, infra


def direct_query(net, src, dst, qname, qtype=RecordType.A, ecs=None,
                 use_edns=True):
    msg = Message.make_query(Name.from_text(qname), qtype, msg_id=1,
                             ecs=ecs, use_edns=use_edns)
    return net.query(src, dst, msg).response


class TestScopeFunctions:
    def test_fixed_scope_caps_at_source(self):
        policy = fixed_scope(24)
        assert policy(EcsOption.from_client_address("1.2.3.4", 16)) == 16
        assert policy(EcsOption.from_client_address("1.2.3.4", 32)) == 24

    def test_source_minus(self):
        policy = source_minus(4)
        assert policy(EcsOption.from_client_address("1.2.3.4", 24)) == 20
        assert policy(EcsOption.from_client_address("1.2.3.4", 2)) == 0


class TestAuthoritativeServer:
    def _server(self, world, ecs_scope=None, supports_edns=True):
        topology, net, infra = world
        zone = Zone(Name.from_text("example.org"))
        zone.add_soa()
        zone.add_text("www", "A", "203.0.113.10")
        ip = infra.host_in(city("Ashburn"))
        server = AuthoritativeServer(ip, [zone], ecs_scope=ecs_scope,
                                     supports_edns=supports_edns)
        net.attach(server)
        client = infra.host_in(city("Ashburn"))
        return net, server, client

    def test_positive_answer(self, world):
        net, server, client = self._server(world)
        resp = direct_query(net, client, server.ip, "www.example.org")
        assert resp.rcode == Rcode.NOERROR
        assert resp.answer_addresses() == ["203.0.113.10"]
        assert resp.authoritative

    @pytest.mark.parametrize("hostile", [overlong_qname_query,
                                         bad_ecs_family_query])
    def test_hostile_datagram_is_dropped(self, world, hostile):
        # Neither a >255-octet qname nor an ECS option of family 3 is a
        # reason to stop serving: the datagram is dropped like any other
        # malformed one and the next query is answered.
        net, server, client = self._server(world, ecs_scope=fixed_scope(24))
        assert server.handle_datagram(hostile(), client, net) is None
        resp = direct_query(net, client, server.ip, "www.example.org")
        assert resp.answer_addresses() == ["203.0.113.10"]
        assert server.queries_received == 2

    def test_nxdomain(self, world):
        net, server, client = self._server(world)
        resp = direct_query(net, client, server.ip, "nope.example.org")
        assert resp.rcode == Rcode.NXDOMAIN

    def test_refused_out_of_zone(self, world):
        net, server, client = self._server(world)
        resp = direct_query(net, client, server.ip, "www.elsewhere.net")
        assert resp.rcode == Rcode.REFUSED

    def test_non_ecs_server_ignores_option(self, world):
        # RFC behavior for non-adopters: the option is silently ignored.
        net, server, client = self._server(world, ecs_scope=None)
        ecs = EcsOption.from_client_address("10.1.2.3", 24)
        resp = direct_query(net, client, server.ip, "www.example.org",
                            ecs=ecs)
        assert resp.rcode == Rcode.NOERROR
        assert resp.ecs() is None

    def test_ecs_server_echoes_scope(self, world):
        net, server, client = self._server(world, ecs_scope=fixed_scope(20))
        ecs = EcsOption.from_client_address("10.1.2.3", 24)
        resp = direct_query(net, client, server.ip, "www.example.org",
                            ecs=ecs)
        echoed = resp.ecs()
        assert echoed is not None
        assert echoed.scope_prefix_length == 20
        assert echoed.matches_query(ecs)

    def test_no_ecs_in_response_without_query_option(self, world):
        net, server, client = self._server(world, ecs_scope=fixed_scope(20))
        resp = direct_query(net, client, server.ip, "www.example.org")
        assert resp.ecs() is None

    def test_pre_edns_server_formerr(self, world):
        net, server, client = self._server(world, supports_edns=False)
        resp = direct_query(net, client, server.ip, "www.example.org")
        assert resp.rcode == Rcode.FORMERR

    def test_pre_edns_server_answers_plain_queries(self, world):
        net, server, client = self._server(world, supports_edns=False)
        resp = direct_query(net, client, server.ip, "www.example.org",
                            use_edns=False)
        assert resp.rcode == Rcode.NOERROR

    def test_query_log(self, world):
        net, server, client = self._server(world)
        direct_query(net, client, server.ip, "www.example.org",
                     ecs=EcsOption.from_client_address("10.0.0.1", 24))
        assert len(server.log) == 1
        record = server.log[0]
        assert record.has_ecs and record.ecs_source_len == 24
        assert record.src_ip == client

    def test_garbage_datagram_dropped(self, world):
        net, server, client = self._server(world)
        assert server.handle_datagram(b"\x00", client, net) is None

    def test_zone_for_most_specific(self, world):
        topology, net, infra = world
        parent = Zone(Name.from_text("example.org"))
        parent.add_soa()
        child = Zone(Name.from_text("sub.example.org"))
        child.add_soa()
        server = AuthoritativeServer("9.9.9.9", [parent, child])
        assert server.zone_for(Name.from_text("a.sub.example.org")) is child


class TestCdn:
    def _cdn(self, world, **kwargs):
        topology, net, infra = world
        cdn_as = topology.create_as("cdn", "US")
        pools = build_edge_pools(topology, cdn_as,
                                 [city("Chicago"), city("Tokyo"),
                                  city("Frankfurt")], addresses_per_pool=3)
        ip = cdn_as.host_in(city("Ashburn"))
        cdn = CdnAuthoritative(ip, [Name.from_text("cdn.example.")], pools,
                               topology, **kwargs)
        net.attach(cdn)
        client_near_chicago = topology.create_as("mw", "US").host_in(
            city("Chicago"))
        return net, cdn, client_near_chicago

    def test_nearest_pool_table_equals_min_for_every_city(self, world):
        topology = world[0]
        pools = build_edge_pools(topology, topology.create_as("cdn", "US"),
                                 [city(n) for n in EDGE_CITIES], 1)
        cdn = CdnAuthoritative("16.0.0.1", [Name.from_text("cdn.example.")],
                               pools, topology)
        clients = topology.create_as("clients", "US")
        hosts = {c: clients.host_in(c) for c in WORLD_CITIES}
        assert isinstance(cdn.edges, tuple)
        for _ in range(2):              # fills the table, then reads it
            for place, ip in hosts.items():
                assert cdn.nearest_pool(ip) is min(
                    pools, key=lambda pool: pool.city.distance_km(place))
        assert len(cdn._pool_of_city) == len(WORLD_CITIES)

    def test_nearest_pool_tie_keeps_the_first_pool(self, world):
        topology = world[0]
        first, second = (EdgePool(city("Zurich"), (ip,))
                         for ip in ("16.9.0.1", "16.9.0.2"))
        client = topology.create_as("ch", "CH").host_in(city("Milan"))
        for pools in ([first, second], [second, first]):
            cdn = CdnAuthoritative("16.0.0.1", [Name.from_text("x.")], pools,
                                   topology)
            assert cdn.nearest_pool(client) is pools[0]
            assert cdn.nearest_pool(client) is pools[0]

    def test_unlocated_hint_hashes_and_fills_no_table(self, world):
        net, cdn, _ = self._cdn(world)
        for hint in ("203.0.113.9", "2001:db8::7", "127.0.0.1"):
            assert cdn.nearest_pool(hint) \
                is cdn.edges[_hash_index(hint, len(cdn.edges))]
        assert not cdn._pool_of_city

    def test_maps_by_resolver_without_ecs(self, world):
        net, cdn, client = self._cdn(world)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example")
        assert resp.answer_addresses()
        assert cdn.last_decision.pool.city.name == "Chicago"
        assert cdn.last_decision.hint_source == "resolver"

    def test_maps_by_ecs_when_present(self, world):
        net, cdn, client = self._cdn(world)
        tokyo_client = world[0].create_as("jp", "JP").host_in(city("Tokyo"))
        ecs = EcsOption.from_client_address(tokyo_client, 24)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert cdn.last_decision.pool.city.name == "Tokyo"
        assert cdn.last_decision.hint_source == "ecs"
        assert resp.ecs().scope_prefix_length == 24

    def test_scope_capped_at_source(self, world):
        net, cdn, client = self._cdn(world)
        ecs = EcsOption.from_client_address("16.0.0.0", 16)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert resp.ecs().scope_prefix_length <= 16

    def test_whitelisting_hides_ecs_support(self, world):
        # The CDN dataset's defining behavior: non-whitelisted resolvers see
        # no trace of ECS support.
        net, cdn, client = self._cdn(world, whitelist={"1.2.3.4"})
        ecs = EcsOption.from_client_address("10.9.8.0", 24)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert resp.ecs() is None
        assert cdn.last_decision.hint_source == "resolver"

    def test_whitelisted_resolver_gets_ecs(self, world):
        net, cdn, client = self._cdn(world, whitelist=None)
        ecs = EcsOption.from_client_address("10.9.8.0", 24)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert resp.ecs() is not None

    def test_min_prefix_threshold_falls_back_to_resolver(self, world):
        net, cdn, client = self._cdn(world, min_source_prefix_v4=24)
        ecs = EcsOption.from_client_address("16.32.0.0", 16)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert cdn.last_decision.hint_source == "resolver"
        # Whitelisted-but-below-threshold answers carry scope 0.
        assert resp.ecs().scope_prefix_length == 0

    def test_unroutable_use_resolver_policy(self, world):
        net, cdn, client = self._cdn(
            world, unroutable_policy=UnroutablePolicy.USE_RESOLVER)
        ecs = EcsOption.from_client_address("127.0.0.1", 32)
        direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert cdn.last_decision.hint_source == "resolver"
        assert cdn.last_decision.pool.city.name == "Chicago"

    def test_unroutable_literal_policy_degrades(self, world):
        net, cdn, client = self._cdn(
            world, unroutable_policy=UnroutablePolicy.LITERAL)
        ecs = EcsOption.from_client_address("127.0.0.1", 32)
        direct_query(net, client, cdn.ip, "www.cdn.example", ecs=ecs)
        assert cdn.last_decision.hint_source == "unroutable-literal"

    def test_nodata_for_txt(self, world):
        net, cdn, client = self._cdn(world)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example",
                            qtype=RecordType.TXT)
        assert resp.rcode == Rcode.NOERROR and not resp.answers

    def test_refused_outside_domains(self, world):
        net, cdn, client = self._cdn(world)
        resp = direct_query(net, client, cdn.ip, "www.other.example")
        assert resp.rcode == Rcode.REFUSED

    def test_answers_per_response(self, world):
        net, cdn, client = self._cdn(world, answers_per_response=2)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example")
        assert len(resp.answer_addresses()) == 2

    def test_answers_equal_fresh_records_for_a_and_aaaa(self, world,
                                                       monkeypatch):
        """Remembered answer records equal the ones built per query: the
        rotation's order, the query's spelling, v6 edges skipped on an A
        query and v4 ones on an AAAA query, cold, warm or clearing."""
        topology, net, _ = world
        pool = EdgePool(city("Chicago"),
                        ("16.9.0.1", "2600:9::1", "16.9.0.2", "2600:9::2"))
        client = topology.create_as("mw", "US").host_in(city("Chicago"))
        queries = [(q, t) for q in ("www.cdn.example", "WWW.cdn.example",
                                    "img.cdn.example")
                   for t in (RecordType.A, RecordType.AAAA)]

        def want(qname, qtype):
            salt = _hash_index(f"{client}|{qname}.", 1 << 30)
            v6 = qtype == RecordType.AAAA
            return [(qname + ".", address)
                    for address in pool.rotation(salt, 3)
                    if (":" in address) == v6]

        def got(cdn, qname, qtype):
            # Straight to the handler: on the wire the owner name is a
            # pointer to the question, which would hide its spelling.
            resp = cdn.handle_query(Message.make_query(
                Name.from_text(qname), qtype, msg_id=1), client, net)
            assert all(rr.rdtype == qtype and rr.ttl == cdn.ttl
                       for rr in resp.answers)
            return [(rr.name.to_text(), rr.rdata.address)
                    for rr in resp.answers]

        for table_max in (None, 2):
            if table_max is not None:
                monkeypatch.setattr("repro.auth.cdn._TABLE_MAX", table_max)
            cdn = CdnAuthoritative(topology.create_as("cdn", "US").host_in(
                city("Ashburn")), [Name.from_text("cdn.example.")], [pool],
                topology, answers_per_response=3)
            net.attach(cdn)
            for _ in range(2):          # cold, then warm
                for qname, qtype in queries:
                    assert got(cdn, qname, qtype) == want(qname, qtype)
        assert len(cdn._records) <= 2 and len(cdn._salts) <= 2
        assert any(want(q, t) for q, t in queries if t == RecordType.AAAA)
        assert any(want(q, t) for q, t in queries if t == RecordType.A)

    def test_only_the_last_decision_is_kept(self, world):
        net, cdn, client = self._cdn(world)
        assert cdn.last_decision is None
        tokyo = EcsOption.from_client_address(
            world[0].create_as("jp", "JP").host_in(city("Tokyo")), 24)
        direct_query(net, client, cdn.ip, "www.cdn.example", ecs=tokyo)
        direct_query(net, client, cdn.ip, "www.cdn.example")
        assert cdn.last_decision == MappingDecision(
            client, "resolver", cdn.nearest_pool(client), None)

    def test_aaaa_only_returns_v6(self, world):
        net, cdn, client = self._cdn(world)
        resp = direct_query(net, client, cdn.ip, "www.cdn.example",
                            qtype=RecordType.AAAA)
        assert resp.answer_addresses() == []  # pools are v4-only

    def test_empty_edges_rejected(self, world):
        topology, net, infra = world
        with pytest.raises(ValueError):
            CdnAuthoritative("1.1.1.1", [Name.from_text("c.")], [], topology)


class TestScanExperiment:
    def test_probe_name_roundtrip(self):
        domain = Name.from_text("scan.example.")
        qname = encode_probe_name("192.168.7.9", domain)
        assert decode_probe_name(qname, domain) == "192.168.7.9"

    def test_probe_name_with_nonce(self):
        domain = Name.from_text("scan.example.")
        qname = encode_probe_name("10.0.0.1", domain, nonce="t42")
        assert decode_probe_name(qname, domain) == "10.0.0.1"

    def test_decode_rejects_other_names(self):
        domain = Name.from_text("scan.example.")
        assert decode_probe_name(Name.from_text("www.scan.example."),
                                 domain) is None
        assert decode_probe_name(Name.from_text("ip-1-2-3-4.other."),
                                 domain) is None

    def test_decode_rejects_bad_octets(self):
        domain = Name.from_text("scan.example.")
        assert decode_probe_name(Name.from_text("ip-999-2-3-4.scan.example."),
                                 domain) is None

    def test_server_answers_and_logs(self, world):
        topology, net, infra = world
        domain = Name.from_text("scan.example.")
        ip = infra.host_in(city("Cleveland"))
        server = ScanExperimentServer(ip, domain, "203.0.113.80")
        net.attach(server)
        client = infra.host_in(city("Cleveland"))
        qname = encode_probe_name("10.1.2.3", domain)
        ecs = EcsOption.from_client_address("85.0.0.0", 24)
        resp = direct_query(net, client, ip, qname.to_text(), ecs=ecs)
        assert resp.answer_addresses() == ["203.0.113.80"]
        # Scope = source − 4, per the paper's configuration.
        assert resp.ecs().scope_prefix_length == 20
        # One log, of Scan dataset records: which ingress was probed,
        # which egress arrived, with what ECS.
        ts = server.observations[-1].ts
        assert server.observations == [ScanQueryRecord(
            ts, "10.1.2.3", client, qname.to_text(), True, "85.0.0.0", 24)]
        assert server.log == []

    def test_server_no_ecs_response_for_plain_query(self, world):
        topology, net, infra = world
        domain = Name.from_text("scan.example.")
        ip = infra.host_in(city("Cleveland"))
        server = ScanExperimentServer(ip, domain, "203.0.113.80")
        net.attach(server)
        client = infra.host_in(city("Cleveland"))
        resp = direct_query(net, client, ip, "ip-1-2-3-4.scan.example.")
        assert resp.ecs() is None


class TestHierarchy:
    def test_root_delegates_tlds(self, world):
        topology, net, infra = world
        hierarchy = DnsHierarchy(net, infra)
        zone = Zone(Name.from_text("example.com"))
        zone.add_soa()
        zone.add_text("www", "A", "1.2.3.4")
        hierarchy.host_zone(zone)
        client = infra.host_in(city("Ashburn"))
        root_resp = direct_query(net, client, hierarchy.root_ips[0],
                                 "www.example.com")
        assert not root_resp.authoritative
        ns = [rr for rr in root_resp.authority if rr.rdtype == RecordType.NS]
        assert ns and ns[0].name == Name.from_text("com.")
        assert root_resp.additional  # glue

    def test_shallow_delegation_rejected(self, world):
        topology, net, infra = world
        hierarchy = DnsHierarchy(net, infra)
        with pytest.raises(ValueError):
            hierarchy.delegate(Name.from_text("com."), ["1.1.1.1"])
