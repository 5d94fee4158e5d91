"""Tests for the scope-reaction prober, golden wire vectors, and failure
injection resilience."""

import pytest

from repro.core.policies import EcsPolicy
from repro.datasets import ScanUniverseBuilder
from repro.faults import QUERY, FaultPlan, PacketLossSpec
from repro.dnslib import (EcsOption, Message, Name, RecordType,
                          decode_message, encode_message)
from repro.measure import ScopeReactionProber, StubClient
from repro.net import city
from repro.resolvers import RecursiveResolver


class TestScopeReaction:
    @pytest.fixture(scope="class")
    def universe(self):
        return ScanUniverseBuilder(seed=17, ingress_count=20).build()

    def _attach_resolver(self, universe, policy):
        as_ = universe.topology.create_as(
            f"react-{policy.adapt_source_to_scope}", "US")
        ip = as_.host_in(city("Denver"))
        resolver = RecursiveResolver(ip, universe.net.clock,
                                     universe.hierarchy.root_ips,
                                     policy=policy)
        universe.net.attach(resolver)
        return ip

    def test_static_resolver_does_not_adapt(self, universe):
        ip = self._attach_resolver(universe, EcsPolicy())
        outcome = ScopeReactionProber(universe).probe(ip)
        assert outcome.adapts is False
        assert all(max(lengths) == 24
                   for lengths in outcome.observed_source_lengths if lengths)

    def test_adaptive_resolver_adapts(self, universe):
        ip = self._attach_resolver(
            universe, EcsPolicy(adapt_source_to_scope=True))
        outcome = ScopeReactionProber(universe).probe(
            ip, phase_scopes=(24, 16, 16))
        assert outcome.adapts is True
        assert max(outcome.observed_source_lengths[-1]) == 16

    def test_non_ecs_resolver_inconclusive(self, universe):
        from repro.resolvers import behaviors
        ip = self._attach_resolver(universe, behaviors.NO_ECS)
        outcome = ScopeReactionProber(universe).probe(ip)
        assert outcome.adapts is None


class TestGoldenWireVectors:
    """Hand-checked byte-level vectors pin the codec's exact output."""

    def test_simple_query_bytes(self):
        msg = Message.make_query(Name.from_text("a.bc"), RecordType.A,
                                 msg_id=0x1234, use_edns=False)
        wire = encode_message(msg)
        assert wire == bytes.fromhex(
            "1234"          # id
            "0100"          # flags: RD
            "0001" "0000" "0000" "0000"  # counts
            "0161" "026263" "00"         # 1'a' 2'bc' root
            "0001" "0001")               # type A, class IN

    def test_query_with_ecs_bytes(self):
        ecs = EcsOption.from_client_address("192.0.2.77", 24)
        msg = Message.make_query(Name.from_text("x."), RecordType.AAAA,
                                 msg_id=1, ecs=ecs)
        wire = encode_message(msg)
        assert wire == bytes.fromhex(
            "0001" "0100" "0001" "0000" "0000" "0001"
            "017800" "001c" "0001"       # x. AAAA IN
            "00"                         # OPT owner: root
            "0029" "1000"                # type OPT, payload 4096
            "00000000"                   # ext-rcode/version/flags
            "000b"                       # rdlength 11
            "0008" "0007"                # option ECS, length 7
            "0001" "1800"                # family 1, source 24, scope 0
            "c00002")                    # 192.0.2

    def test_golden_decodes_back(self):
        wire = bytes.fromhex(
            "1234" "0100" "0001" "0000" "0000" "0000"
            "0161" "026263" "00" "0001" "0001")
        msg = decode_message(wire)
        assert msg.msg_id == 0x1234
        assert msg.question.qname == Name.from_text("a.bc")

    def test_compression_pointer_bytes(self):
        from repro.dnslib import A, ResourceRecord
        msg = Message.make_query(Name.from_text("a.bc"), RecordType.A,
                                 msg_id=0, use_edns=False)
        resp = msg.make_response()
        resp.answers.append(ResourceRecord(Name.from_text("a.bc"),
                                           RecordType.A, 5, A("1.2.3.4")))
        wire = encode_message(resp)
        # Question: name "a.bc" is 6 octets (1 a 2 b c 0) + 4 type/class,
        # so the answer's owner starts at 22 — a pointer to offset 12.
        assert wire[22:24] == b"\xc0\x0c"


def _query_loss(dst, rate):
    """A bound plan losing ``rate`` of the queries sent to ``dst``."""
    return FaultPlan("query-loss", (
        PacketLossSpec(rate, dst=dst, direction=QUERY),)).bind(0)


class TestFailureInjection:
    def test_resolution_survives_lossy_authoritative(self, small_world):
        """50% loss toward the zone server: retries across the (single)
        NS eventually fail or succeed, but never hang or crash."""
        client = StubClient(small_world.client_ip, small_world.net)
        # Locate the example.com server and make it lossy.
        client.query(small_world.resolver_ip, "www.example.com")
        origin = Name.from_text("example.com")
        server = next(
            ep for ip in list(small_world.net.stats.per_destination)
            if (ep := small_world.net.endpoint_at(ip)) is not None
            and any(z.origin == origin for z in getattr(ep, "zones", [])))
        small_world.net.install_injector(_query_loss(server.ip, 0.5))
        small_world.topology.clock.advance(301)
        outcomes = set()
        for i in range(6):
            result = client.query(small_world.resolver_ip,
                                  "www.example.com")
            outcomes.add(result.rcode)
            small_world.topology.clock.advance(301)
        # Every attempt terminated with a definite outcome.
        assert outcomes and None not in outcomes

    def test_total_loss_yields_servfail_not_hang(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        client.query(small_world.resolver_ip, "www.example.com")
        origin = Name.from_text("example.com")
        server = next(
            ep for ip in list(small_world.net.stats.per_destination)
            if (ep := small_world.net.endpoint_at(ip)) is not None
            and any(z.origin == origin for z in getattr(ep, "zones", [])))
        small_world.net.install_injector(_query_loss(server.ip, 1.0))
        small_world.topology.clock.advance(301)
        from repro.dnslib import Rcode
        result = client.query(small_world.resolver_ip, "www.example.com")
        assert result.rcode == Rcode.SERVFAIL

    def test_scan_with_packet_loss_still_classifies(self):
        universe = ScanUniverseBuilder(seed=19, ingress_count=30).build()
        # 20% loss toward the experiment server.
        universe.net.install_injector(
            _query_loss(universe.experiment_server.ip, 0.2))
        from repro.measure import Scanner
        result = Scanner(universe).scan()
        # Some probes are lost, but the survivors still carry ECS data.
        assert result.records
        assert result.ecs_egress
