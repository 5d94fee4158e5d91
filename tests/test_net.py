"""Tests for the simulated internet: clock, addressing, geo, topology,
latency, and the wire-level transport."""

import ipaddress
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.addr import address_text, host_in
from repro.datasets.scan_dataset import ScanUniverseBuilder, _city_tables
from repro.dnslib import Message, Name, Rcode, RecordType
from repro.faults import QUERY, FaultPlan, PacketLossSpec, RcodeFaultSpec
from repro.net import (AddressAllocator, LatencyModel, Network, SimClock,
                       Topology, city, haversine_km, is_routable, parse_addr,
                       same_prefix)
from repro.net.geo import GeoDatabase, WORLD_CITIES
from repro.net.transport import FaultAction

from addr_reference import prefix_key, prefix_text, truncate_address
from wire_strategies import bad_ecs_family_query


class TestClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to_forward_only(self):
        clock = SimClock(10)
        clock.advance_to(5)
        assert clock.now() == 10
        clock.advance_to(20)
        assert clock.now() == 20


class TestAddr:
    def test_truncate_24(self):
        assert str(truncate_address("192.0.2.77", 24)) == "192.0.2.0"

    def test_truncate_0(self):
        assert str(truncate_address("192.0.2.77", 0)) == "0.0.0.0"

    def test_truncate_v6(self):
        assert str(truncate_address("2001:db8:abcd::1", 32)) == "2001:db8::"

    def test_truncate_odd_bits(self):
        assert str(truncate_address("10.0.0.255", 25)) == "10.0.0.128"

    def test_truncate_out_of_range(self):
        with pytest.raises(ValueError):
            truncate_address("1.2.3.4", 33)

    def test_prefix_key_groups(self):
        assert prefix_key("10.1.2.3", 24) == prefix_key("10.1.2.200", 24)
        assert prefix_key("10.1.2.3", 24) != prefix_key("10.1.3.3", 24)

    def test_prefix_key_family_disjoint(self):
        assert prefix_key("10.0.0.0", 24) != prefix_key("::a00:0", 24)

    def test_prefix_text(self):
        assert prefix_text("10.1.2.3", 16) == "10.1.0.0/16"

    def test_same_prefix(self):
        assert same_prefix("10.1.2.3", "10.1.2.99", 24)
        assert not same_prefix("10.1.2.3", "10.1.3.3", 24)
        assert not same_prefix("10.1.2.3", "2001:db8::1", 24)

    def test_is_routable(self):
        # The paper's §8.1 rule: multicast is not one of its kinds.
        for good in ("93.184.216.34", "224.0.0.1"):
            assert is_routable(*parse_addr(good))
        for bad in ("127.0.0.1", "10.0.0.1", "169.254.1.1", "0.0.0.0"):
            assert not is_routable(*parse_addr(bad))

    def test_host_in(self):
        assert str(host_in("10.0.0.0/24", 5)) == "10.0.0.5"

    def test_host_in_out_of_range(self):
        with pytest.raises(ValueError):
            host_in("10.0.0.0/30", 10)

    def test_host_in_negative_index_rejected(self):
        # -1 used to count back from the network address, out of the /24
        with pytest.raises(ValueError, match="no host index -1"):
            host_in("10.0.0.0/24", -1)


class TestAllocator:
    def test_sequential_disjoint(self):
        alloc = AddressAllocator("10.0.0.0/8")
        nets = [alloc.subnet(16) for _ in range(4)]
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                assert not a.overlaps(b)

    def test_alignment_after_smaller_alloc(self):
        alloc = AddressAllocator("10.0.0.0/8")
        alloc.subnet(24)
        big = alloc.subnet(16)
        assert str(big) == "10.1.0.0/16"

    def test_exhaustion(self):
        alloc = AddressAllocator("10.0.0.0/30")
        alloc.subnet(30)
        with pytest.raises(ValueError):
            alloc.subnet(30)

    def test_larger_than_supernet_rejected(self):
        with pytest.raises(ValueError):
            AddressAllocator("10.0.0.0/16").subnet(8)

    def test_over_long_prefix_names_the_family_width(self):
        with pytest.raises(ValueError, match=r"/33 longer than the 32 bits"):
            AddressAllocator("10.0.0.0/8").subnet(33)
        with pytest.raises(ValueError, match=r"/129 longer than the 128 bits"):
            AddressAllocator("2600::/16").subnet(129)


def _reference_subnets(supernet, prefixes):
    """The allocation sequence worked out with ``ipaddress`` objects:
    each subnet is the first aligned one at or past the cursor, ``None``
    where the allocator must raise (a prefix outside the supernet's range
    or an exhausted supernet)."""
    cursor, last = int(supernet.network_address), \
        int(supernet.broadcast_address)
    out = []
    for prefixlen in prefixes:
        if not supernet.prefixlen <= prefixlen <= 32 or cursor > last:
            out.append(None)
            continue
        net = ipaddress.ip_network((cursor, prefixlen), strict=False)
        start = int(net.network_address)
        if start < cursor:
            start += net.num_addresses
        if start + net.num_addresses > last + 1:
            out.append(None)
            continue
        net = ipaddress.ip_network((start, prefixlen))
        out.append(net)
        cursor = int(net.broadcast_address) + 1
    return out


@pytest.mark.oracle
class TestPlacementOracle:
    """Integer placement (the allocator's integers, the dotted-quad
    formatter, the fixed city tables, the per-city nearest frontend)
    equals the ``ipaddress`` objects and per-call comprehensions it
    replaced."""

    @settings(max_examples=300, deadline=None)
    @given(base=st.integers(0, 2**32 - 1), length=st.integers(0, 32),
           prefixes=st.lists(st.integers(-1, 34), max_size=12))
    @example(base=0, length=0, prefixes=[0])
    @example(base=2**32 - 1, length=32, prefixes=[32, 32])
    def test_allocator_and_formatter_equal_ipaddress(self, base, length,
                                                     prefixes):
        supernet = ipaddress.ip_network((base, length), strict=False)
        alloc = AddressAllocator(supernet)
        for i, (prefixlen, want) in enumerate(
                zip(prefixes, _reference_subnets(supernet, prefixes))):
            take = alloc.subnet if i % 2 else alloc.allocate
            if want is None:
                with pytest.raises(ValueError):
                    take(prefixlen)
                continue
            got = take(prefixlen)
            if take == alloc.allocate:
                got = ipaddress.ip_network((got, prefixlen))
            assert got == want
            for value in (int(want.network_address),
                          int(want.broadcast_address)):
                assert address_text(4, value) == \
                    str(ipaddress.IPv4Address(value))

    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(0, 2**128 - 1))
    @example(value=0)
    @example(value=2**32 - 1)
    def test_formatter_equals_ipaddress(self, value):
        assert address_text(6, value) == str(ipaddress.IPv6Address(value))
        value &= 2**32 - 1
        assert address_text(4, value) == str(ipaddress.IPv4Address(value))

    def test_city_tables_equal_comprehensions(self):
        by_country, near, far = _city_tables()
        countries = {c.country for c in WORLD_CITIES}
        assert set(by_country) == countries
        for country in countries:
            assert list(by_country[country]) == \
                [c for c in WORLD_CITIES if c.country == country]
        for origin in WORLD_CITIES:
            assert list(near[origin]) == [
                c for c in WORLD_CITIES
                if c.point.distance_km(origin.point) < 1500]
            assert list(far[origin]) == [
                c for c in WORLD_CITIES
                if c.point.distance_km(origin.point) > 6000]

    def test_nearest_frontend_once_per_city_equals_per_host(self):
        universe = ScanUniverseBuilder(seed=3, ingress_count=60).build()
        topology, megadns = universe.topology, universe.megadns
        nearest = ScanUniverseBuilder._nearest_frontends(megadns, topology)
        for ip in topology.host_as:
            from_city = topology.city_of(ip)
            best_ip, best_d = megadns.frontend_ips[0], float("inf")
            for fe_ip in megadns.frontend_ips:
                d = from_city.distance_km(topology.city_of(fe_ip))
                if d < best_d:
                    best_ip, best_d = fe_ip, d
            assert nearest[from_city] == best_ip


class TestGeo:
    def test_haversine_known_distance(self):
        # Cleveland to Chicago is roughly 500 km.
        d = city("Cleveland").distance_km(city("Chicago"))
        assert 400 < d < 550

    def test_haversine_zero(self):
        assert haversine_km(10, 20, 10, 20) == 0

    def test_haversine_antipodal_bounded(self):
        assert haversine_km(0, 0, 0, 180) < 20040

    def test_city_lookup(self):
        assert city("Tokyo").country == "JP"

    def test_unknown_city_raises(self):
        with pytest.raises(KeyError):
            city("Atlantis")

    def test_geodb_longest_prefix_wins(self):
        db = GeoDatabase()
        db.add("10.0.0.0/8", city("London"))
        db.add("10.1.2.0/24", city("Tokyo"))
        assert db.locate("10.1.2.3").name == "Tokyo"
        assert db.locate("10.9.9.9").name == "London"

    def test_geodb_miss(self):
        assert GeoDatabase().locate("8.8.8.8") is None

    def test_geodb_distance(self):
        db = GeoDatabase()
        db.add("10.0.0.0/24", city("Cleveland"))
        db.add("10.0.1.0/24", city("Chicago"))
        assert 400 < db.distance_km("10.0.0.5", "10.0.1.5") < 550

    def test_geodb_v6(self):
        db = GeoDatabase()
        db.add("2600::/32", city("Paris"))
        assert db.locate("2600::1").name == "Paris"

    def test_geodb_len_counts_every_prefix(self):
        db = GeoDatabase()
        for network in ("10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16",
                        "2600::/32"):
            db.add(network, city("Paris"))
        db.add("10.1.0.0/16", city("Tokyo"))        # replaces, not adds
        assert len(db) == 4

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2**128 - 1),
                              st.integers(0, 128),
                              st.sampled_from(WORLD_CITIES)), max_size=12),
           st.lists(st.tuples(st.booleans(), st.integers(0, 2**128 - 1)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_geodb_locate_equals_the_sorting_loop(self, entries, probes):
        """``locate`` keeps its lengths sorted at ``add`` and parses
        through ``parse_addr``; the loop it replaced, which sorted and
        parsed on every call, is the oracle."""
        db, oracle = GeoDatabase(), SortingGeoDatabase()
        texts = []
        for v6, value, bits, where in entries:
            net = ipaddress.ip_network(
                (value, bits) if v6 else (value >> 96, bits % 33),
                strict=False)
            db.add(net, where)
            oracle.add(net, where)
            # One address inside what was just added, so hits are common.
            texts.append(str(net.network_address + (value & 7)
                             if net.prefixlen < net.max_prefixlen - 3
                             else net.network_address))
        texts += [str(ipaddress.IPv6Address(value) if v6
                      else ipaddress.IPv4Address(value >> 96))
                  for v6, value in probes]
        for text in texts:
            assert db.locate(text) is oracle.locate(text)
        assert len(db) == sum(len(t) for t in oracle._tables.values())


class SortingGeoDatabase:
    """``GeoDatabase.add`` / ``locate`` as they were before the lengths
    were kept sorted: the oracle for the test above."""

    def __init__(self):
        self._tables = {}

    def add(self, network, location):
        net = ipaddress.ip_network(network, strict=False)
        table = self._tables.setdefault((net.version, net.prefixlen), {})
        table[int(net.network_address)] = location

    def locate(self, address):
        addr = ipaddress.ip_address(address)
        width = 32 if addr.version == 4 else 128
        as_int = int(addr)
        lengths = sorted((length for version, length in self._tables
                          if version == addr.version), reverse=True)
        for length in lengths:
            mask = ((1 << length) - 1) << (width - length) if length else 0
            hit = self._tables[(addr.version, length)].get(as_int & mask)
            if hit is not None:
                return hit
        return None


class TestLatency:
    def test_monotone_in_distance(self):
        model = LatencyModel(jitter_fraction=0)
        assert model.rtt_ms(100) < model.rtt_ms(5000)

    def test_base_at_zero_distance(self):
        model = LatencyModel(jitter_fraction=0)
        assert model.rtt_ms(0) == model.base_ms

    def test_jitter_bounded(self):
        model = LatencyModel(jitter_fraction=0.05)
        rng = random.Random(3)
        base = LatencyModel(jitter_fraction=0).rtt_ms(1000)
        for _ in range(100):
            assert abs(model.rtt_ms(1000, rng) - base) <= base * 0.05 + 1e-9

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().rtt_ms(-1)

    def test_transatlantic_regime(self):
        # London-New York (~5 500 km) should be on the order of 100 ms.
        model = LatencyModel(jitter_fraction=0)
        rtt = model.rtt_ms(city("London").point.distance_km(
            city("New York").point))
        assert 60 < rtt < 200


class TestTopology:
    def test_as_hosts_geolocated(self):
        topo = Topology()
        as_ = topo.create_as("test", "US")
        ip = as_.host_in(city("Seattle"))
        assert topo.city_of(ip).name == "Seattle"
        assert topo.host_as[ip] is as_

    def test_hosts_unique(self):
        topo = Topology()
        as_ = topo.create_as("test", "US")
        ips = {as_.host_in(city("Seattle")) for _ in range(300)}
        assert len(ips) == 300

    def test_new_subnet_hosts_differ_at_24(self):
        topo = Topology()
        as_ = topo.create_as("test", "US")
        a = as_.host_in_new_subnet(city("Miami"))
        b = as_.host_in_new_subnet(city("Miami"))
        assert same_prefix(a, b, 16)
        assert not same_prefix(a, b, 24)

    def test_v6_hosts(self):
        topo = Topology()
        as_ = topo.create_as("test6", "US")
        ip = as_.host6_in(city("Denver"))
        assert ":" in ip
        assert topo.city_of(ip).name == "Denver"

    def test_distance_km(self):
        topo = Topology()
        as_ = topo.create_as("t", "US")
        a = as_.host_in(city("Cleveland"))
        b = as_.host_in(city("Chicago"))
        assert 400 < topo.distance_km(a, b) < 550

    def test_duplicate_asn_rejected(self):
        topo = Topology()
        topo.create_as("a", "US", asn=100)
        with pytest.raises(ValueError):
            topo.create_as("b", "US", asn=100)

    def test_rtt_uses_default_for_unknown(self):
        topo = Topology()
        assert topo.rtt_ms("1.1.1.1", "2.2.2.2") > 0

    def test_rtt_of_unplaced_endpoint_follows_the_geo_db(self):
        """Only placed pairs are remembered: a geo-DB entry added after
        a query moves the next RTT to an unplaced address."""
        topo = Topology()
        placed = topo.create_as("t", "US").host_in(city("Cleveland"))
        unplaced = "203.0.113.9"
        far = topo.latency.rtt_ms(2000.0)
        assert topo.rtt_ms(placed, unplaced) == far
        assert topo.rtt_ms(unplaced, placed) == far
        topo.geo.add("203.0.113.0/24", city("Chicago"))
        near = topo.latency.rtt_ms(
            city("Cleveland").distance_km(city("Chicago")))
        assert topo.rtt_ms(placed, unplaced) == near
        assert topo.rtt_ms(unplaced, placed) == near

    def test_warm_and_cold_distance_tables_give_one_rtt_sequence(
            self, monkeypatch):
        """The jitter is drawn on every call, so a seeded stream gives the
        same RTTs whether the pair table is empty, full or clearing."""
        def reference(topo, pairs, seed):
            rng = random.Random(seed)
            dists = [topo.distance_km(a, b) for a, b in pairs]
            return [topo.latency.rtt_ms(2000.0 if d is None else d, rng)
                    for d in dists]

        for table_max in (None, 4):
            if table_max is not None:
                monkeypatch.setattr("repro.net.topology._DISTANCE_TABLE_MAX",
                                    table_max)
            topo = Topology()
            as_ = topo.create_as("t", "US")
            hosts = [as_.host_in(c) for c in WORLD_CITIES[:6]]
            pairs = [(a, b) for a in hosts + ["203.0.113.9"]
                     for b in hosts + ["203.0.113.9"]] * 2
            want = reference(topo, pairs, 5)
            for _ in range(2):          # cold, then warm
                rng = random.Random(5)
                assert [topo.rtt_ms(a, b, rng) for a, b in pairs] == want
            # Placed pairs only, and never more than the bound.
            assert len(topo._distances) <= (table_max or 36)


class _Echo:
    """Endpoint answering every query with an empty NOERROR response."""

    def __init__(self, ip):
        self.ip = ip
        self.seen = 0

    def handle_datagram(self, wire, src_ip, net, tcp=False):
        from repro.dnslib import decode_message, encode_message
        self.seen += 1
        return encode_message(decode_message(wire).make_response())


class _Garbler(_Echo):
    """Endpoint whose answers no client can parse."""

    def handle_datagram(self, wire, src_ip, net, tcp=False):
        self.seen += 1
        return bad_ecs_family_query()


class _DropQueriesTo:
    """Injector dropping every query sent to one address."""

    def __init__(self, dst):
        self.dst = dst

    def on_query(self, src_ip, dst_ip, message, tcp, now):
        return FaultAction("test", drop=True) if dst_ip == self.dst else None

    def on_response(self, src_ip, dst_ip, response, tcp, now):
        return None


class TestTransport:
    def _net(self):
        topo = Topology()
        net = Network(topo)
        as_ = topo.create_as("t", "US")
        a = as_.host_in(city("Cleveland"))
        b = as_.host_in(city("Tokyo"))
        return net, a, b

    def test_query_roundtrip(self):
        net, a, b = self._net()
        echo = _Echo(b)
        net.attach(echo)
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A))
        assert out.response is not None and out.response.is_response
        assert echo.seen == 1

    def test_elapsed_reflects_distance(self):
        net, a, b = self._net()
        net.attach(_Echo(b))
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A))
        # Cleveland-Tokyo is ~10 000 km; RTT should exceed 100 ms.
        assert out.elapsed_ms > 100

    def test_clock_advances(self):
        net, a, b = self._net()
        net.attach(_Echo(b))
        before = net.clock.now()
        net.query(a, b, Message.make_query(Name.from_text("x."), RecordType.A))
        assert net.clock.now() > before

    def test_unknown_destination_times_out(self):
        net, a, b = self._net()
        out = net.query(a, "9.9.9.9", Message.make_query(
            Name.from_text("x."), RecordType.A))
        assert out.timed_out and out.response is None
        assert net.stats.timeouts == 1

    def test_loss_injection(self):
        net, a, b = self._net()
        net.attach(_Echo(b))
        net.install_injector(FaultPlan("loss", (
            PacketLossSpec(1.0, dst=b, direction=QUERY),)).bind(0))
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A))
        assert out.timed_out
        assert net.stats.drops == 1

    def test_unparseable_response_is_a_lost_response(self):
        net, a, b = self._net()
        garbler = _Garbler(b)
        net.attach(garbler)
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A))
        assert garbler.seen == 1
        assert out.timed_out and out.response is None
        assert net.stats.drops == 1

    @pytest.mark.parametrize("advance_clock", [True, False])
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("tcp", [False, True])
    def test_elapsed_charges_tcp_handshake(self, advance_clock, faulted, tcp):
        # A stream query costs the handshake RTT plus the exchange RTT,
        # whether or not the network moves the shared clock, and whether
        # the server or an injected error rcode answers.
        topo = Topology()
        net = Network(topo, advance_clock=advance_clock)
        as_ = topo.create_as("t", "US")
        a, b = as_.host_in(city("Cleveland")), as_.host_in(city("Tokyo"))
        net.attach(_Echo(b))
        if faulted:
            net.install_injector(FaultPlan("formerr", (
                RcodeFaultSpec(only_ecs=False),)).bind(0))
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A), tcp=tcp)
        assert out.response is not None
        assert (out.response.rcode == Rcode.FORMERR) == faulted
        rtt = topo.rtt_ms(a, b)
        assert out.elapsed_ms == pytest.approx((2 if tcp else 1) * rtt)

    def test_filter_injection(self):
        net, a, b = self._net()
        net.attach(_Echo(b))
        net.install_injector(_DropQueriesTo(b))
        out = net.query(a, b, Message.make_query(Name.from_text("x."),
                                                 RecordType.A))
        assert out.timed_out

    def test_stats_counting(self):
        net, a, b = self._net()
        net.attach(_Echo(b))
        for _ in range(3):
            net.query(a, b, Message.make_query(Name.from_text("x."),
                                               RecordType.A))
        assert net.stats.datagrams == 3
        assert net.stats.per_destination[b] == 3
        assert net.stats.bytes_sent > 0

    def test_ping_average_positive(self):
        net, a, b = self._net()
        assert net.ping_ms(a, b, count=8) > 100

    def test_ping_zero_count_rejected(self):
        net, a, b = self._net()
        with pytest.raises(ValueError):
            net.ping_ms(a, b, count=0)

    def test_tcp_handshake_scales_with_distance(self):
        net, a, b = self._net()
        topo_as = net.topology.create_as("near", "US")
        near = topo_as.host_in(city("Cleveland"))
        assert net.tcp_handshake_ms(a, near) < net.tcp_handshake_ms(a, b)
