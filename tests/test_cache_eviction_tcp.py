"""Tests for capacity eviction, negative caching, and TCP fallback."""

import pytest

from repro.core import EcsCache
from repro.dnslib import (A, EcsOption, Message, Name, Rcode, RecordType,
                          ResourceRecord, SOA, TXT, encode_message)
from repro.measure import StubClient
from repro.net import SimClock

QNAME = Name.from_text("www.example.com")


def response_for(subnet, scope=24, ttl=60):
    ecs = EcsOption.from_client_address(subnet, 24)
    msg = Message(is_response=True)
    msg.answers.append(ResourceRecord(QNAME, RecordType.A, ttl,
                                      A("203.0.113.1")))
    msg.set_ecs(ecs.response_to(scope))
    return msg, ecs


class TestCapacityEviction:
    def test_lru_eviction_over_capacity(self):
        clock = SimClock()
        cache = EcsCache(clock, max_entries=3)
        for i in range(3):
            msg, ecs = response_for(f"10.0.{i}.0")
            cache.store(QNAME, RecordType.A, msg, ecs)
            clock.advance(1)
        # Touch the first entry so it becomes most-recently used.
        assert cache.lookup(QNAME, RecordType.A, "10.0.0.9") is not None
        msg, ecs = response_for("10.0.9.0")
        cache.store(QNAME, RecordType.A, msg, ecs)
        assert cache.size() == 3
        assert cache.stats.evictions == 1
        # The LRU victim was the /24 for 10.0.1.0 (inserted second, never
        # touched again).
        assert cache.lookup(QNAME, RecordType.A, "10.0.1.9") is None
        assert cache.lookup(QNAME, RecordType.A, "10.0.0.9") is not None

    def test_no_eviction_under_capacity(self):
        cache = EcsCache(SimClock(), max_entries=10)
        for i in range(5):
            msg, ecs = response_for(f"10.0.{i}.0")
            cache.store(QNAME, RecordType.A, msg, ecs)
        assert cache.stats.evictions == 0

    def test_unbounded_by_default(self):
        cache = EcsCache(SimClock())
        for i in range(50):
            msg, ecs = response_for(f"10.{i // 256}.{i % 256}.0")
            cache.store(QNAME, RecordType.A, msg, ecs)
        assert cache.size() == 50
        assert cache.stats.evictions == 0

    def test_ecs_pressure_causes_evictions_plain_does_not(self):
        """The section 7 mechanism: under a fixed capacity, ECS-fragmented
        entries for one hot name evict each other while a scope-0 workload
        fits trivially."""
        clock = SimClock()
        bounded = EcsCache(clock, max_entries=4)
        for i in range(8):
            msg, ecs = response_for(f"10.0.{i}.0", scope=24)
            bounded.store(QNAME, RecordType.A, msg, ecs)
        assert bounded.stats.evictions == 4

        plain = EcsCache(clock, max_entries=4)
        for i in range(8):
            msg, ecs = response_for(f"10.0.{i}.0", scope=0)
            plain.store(QNAME, RecordType.A, msg, ecs)
        assert plain.stats.evictions == 0


class TestNegativeCaching:
    def test_soa_minimum_bounds_negative_ttl(self):
        clock = SimClock()
        cache = EcsCache(clock)
        negative = Message(is_response=True, rcode=Rcode.NXDOMAIN)
        soa = SOA(Name.from_text("ns1.example.com"),
                  Name.from_text("host.example.com"), 1, 3600, 600, 86400,
                  minimum=30)
        negative.authority.append(
            ResourceRecord(Name.from_text("example.com"), RecordType.SOA,
                           900, soa))
        cache.store(QNAME, RecordType.A, negative, None)
        clock.advance(29)
        assert cache.lookup(QNAME, RecordType.A, "1.2.3.4") is not None
        clock.advance(2)
        assert cache.lookup(QNAME, RecordType.A, "1.2.3.4") is None

    def test_soa_ttl_bounds_when_smaller(self):
        clock = SimClock()
        cache = EcsCache(clock)
        negative = Message(is_response=True, rcode=Rcode.NXDOMAIN)
        soa = SOA(Name.from_text("ns1.example.com"),
                  Name.from_text("host.example.com"), 1, 3600, 600, 86400,
                  minimum=3600)
        negative.authority.append(
            ResourceRecord(Name.from_text("example.com"), RecordType.SOA,
                           10, soa))
        cache.store(QNAME, RecordType.A, negative, None)
        clock.advance(11)
        assert cache.lookup(QNAME, RecordType.A, "1.2.3.4") is None

    def test_resolver_caches_nxdomain(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, "ghost.example.com")
        upstream = small_world.resolver.upstream_queries
        client.query(small_world.resolver_ip, "ghost.example.com")
        assert small_world.resolver.upstream_queries == upstream


class TestTcpFallback:
    @staticmethod
    def _example_com_server(small_world):
        from repro.dnslib import Name
        origin = Name.from_text("example.com")
        for ip in list(small_world.net.stats.per_destination):
            ep = small_world.net.endpoint_at(ip)
            if ep is not None and any(
                    z.origin == origin for z in getattr(ep, "zones", [])):
                return ep
        raise AssertionError("example.com server not found")

    def _install_fat_record(self, small_world, label="fat", segments=40):
        """A TXT record too large for a 512-byte UDP response."""
        big = TXT(tuple(b"x" * 200 for _ in range(segments)))
        small_world.zone.add(Name.from_text(f"{label}.example.com"),
                             RecordType.TXT, big, ttl=60)

    def test_truncation_then_tcp_retry_direct(self, small_world):
        self._install_fat_record(small_world)
        client = StubClient(small_world.client_ip, small_world.net)
        # Find the zone server: resolve once, then query it directly.
        client.query(small_world.resolver_ip, "www.example.com")
        zone_server = self._example_com_server(small_world)
        # Without EDNS the 8KB TXT cannot fit in 512 bytes.
        result = client.query(zone_server.ip, "fat.example.com",
                              RecordType.TXT, use_edns=False,
                              retry_on_truncation=False)
        assert result.response.truncated
        assert not result.response.answers
        # dig-style auto-retry over TCP gets the full answer.
        result = client.query(zone_server.ip, "fat.example.com",
                              RecordType.TXT, use_edns=False)
        assert not result.response.truncated
        assert result.response.answers

    def test_resolver_retries_over_tcp(self, small_world):
        self._install_fat_record(small_world, label="fat2", segments=40)
        # Force small advertised payload so even EDNS queries truncate.
        small_world.resolver._no_edns_servers = set()
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "fat2.example.com",
                              RecordType.TXT)
        # The resolver transparently fell back to TCP upstream: the stub
        # gets the complete (non-truncated) answer.
        assert result.response.answers

    def test_edns_payload_avoids_truncation(self, small_world):
        self._install_fat_record(small_world, label="fat3", segments=15)
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, "www.example.com")
        zone_server = self._example_com_server(small_world)
        # ~3 KB answer fits the 4096-byte EDNS payload: no truncation.
        result = client.query(zone_server.ip, "fat3.example.com",
                              RecordType.TXT, retry_on_truncation=False)
        assert not result.response.truncated
        assert result.response.answers


class TestAdvertisedPayloadFloor:
    """RFC 6891 section 6.2.3: a requestor's payload size below 512 is
    treated as 512, on a live ``AuthoritativeServer``."""

    @staticmethod
    def _ask(small_world, server, label, rdtype, payload_size, tcp=False):
        query = Message.make_query(Name.from_text(f"{label}.example.com"),
                                   rdtype, msg_id=9)
        query.edns.payload_size = payload_size
        outcome = small_world.net.query(small_world.client_ip, server.ip,
                                        query, tcp=tcp)
        return outcome.response

    @pytest.fixture
    def server(self, small_world):
        StubClient(small_world.client_ip, small_world.net).query(
            small_world.resolver_ip, "www.example.com")
        return TestTcpFallback._example_com_server(small_world)

    @pytest.mark.parametrize("advertised", [0, 100, 511, 512])
    def test_small_answer_to_a_tiny_advert_arrives_whole(
            self, small_world, server, advertised):
        response = self._ask(small_world, server, "www", RecordType.A,
                             advertised)
        assert len(encode_message(response)) < 100
        assert not response.truncated
        assert response.answer_addresses() == ["93.184.216.34"]

    @pytest.mark.parametrize("advertised", [0, 512])
    def test_large_answer_still_truncates_at_the_floor(
            self, small_world, server, advertised):
        small_world.zone.add(
            Name.from_text("fat4.example.com"), RecordType.TXT,
            TXT(tuple(b"x" * 200 for _ in range(3))), ttl=60)
        response = self._ask(small_world, server, "fat4", RecordType.TXT,
                             advertised)
        assert response.truncated and not response.answers
        # 600 octets of TXT fit once the advert says so ...
        assert self._ask(small_world, server, "fat4", RecordType.TXT,
                         1232).answers
        # ... and TCP is never truncated, whatever was advertised.
        over_tcp = self._ask(small_world, server, "fat4", RecordType.TXT,
                             advertised, tcp=True)
        assert not over_tcp.truncated
        assert len(encode_message(over_tcp)) > 512
