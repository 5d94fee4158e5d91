"""Tests for ECS probing policies and query-side option construction."""

from repro.core.policies import (EcsDecision, EcsPolicy, ProbingEngine,
                                 ProbingStrategy, build_query_ecs)
from repro.dnslib import EcsOption, Name, RecordType
from repro.resolvers import behaviors

AUTH = "203.0.113.53"
WWW = Name.from_text("www.example.com")
PROBE = Name.from_text("probe.example.com")


class TestProbingEngine:
    def test_always_sends_for_addresses(self):
        engine = ProbingEngine(EcsPolicy(probing=ProbingStrategy.ALWAYS))
        assert engine.decide(WWW, RecordType.A, AUTH, 0.0).send_ecs
        assert engine.decide(WWW, RecordType.AAAA, AUTH, 0.0).send_ecs

    def test_always_skips_non_address_types(self):
        engine = ProbingEngine(EcsPolicy(probing=ProbingStrategy.ALWAYS))
        assert not engine.decide(WWW, RecordType.NS, AUTH, 0.0).send_ecs
        assert not engine.decide(WWW, RecordType.TXT, AUTH, 0.0).send_ecs

    def test_ns_violation_flag(self):
        engine = ProbingEngine(EcsPolicy(probing=ProbingStrategy.ALWAYS,
                                         send_ecs_for_ns_queries=True))
        assert engine.decide(WWW, RecordType.NS, AUTH, 0.0).send_ecs

    def test_never(self):
        engine = ProbingEngine(EcsPolicy(probing=ProbingStrategy.NEVER))
        assert not engine.decide(WWW, RecordType.A, AUTH, 0.0).send_ecs

    def test_probe_hostnames_only(self):
        policy = EcsPolicy(probing=ProbingStrategy.PROBE_HOSTNAMES,
                           probe_hostnames=frozenset({PROBE}))
        engine = ProbingEngine(policy)
        assert engine.decide(PROBE, RecordType.A, AUTH, 0.0).send_ecs
        assert not engine.decide(WWW, RecordType.A, AUTH, 0.0).send_ecs

    def test_on_miss_requires_miss(self):
        policy = EcsPolicy(probing=ProbingStrategy.HOSTNAMES_ON_MISS,
                           probe_hostnames=frozenset({PROBE}))
        engine = ProbingEngine(policy)
        assert engine.decide(PROBE, RecordType.A, AUTH, 0.0,
                             cache_hit=False).send_ecs
        assert not engine.decide(PROBE, RecordType.A, AUTH, 0.0,
                                 cache_hit=True).send_ecs

    def test_domain_whitelist(self):
        policy = EcsPolicy(probing=ProbingStrategy.DOMAIN_WHITELIST,
                           whitelist_zones=(Name.from_text("example.com"),))
        engine = ProbingEngine(policy)
        assert engine.decide(WWW, RecordType.A, AUTH, 0.0).send_ecs
        assert not engine.decide(Name.from_text("www.other.net"),
                                 RecordType.A, AUTH, 0.0).send_ecs

    def test_interval_loopback_fires_then_waits(self):
        policy = EcsPolicy(probing=ProbingStrategy.INTERVAL_LOOPBACK,
                           probe_interval=1800)
        engine = ProbingEngine(policy)
        first = engine.decide(WWW, RecordType.A, AUTH, 0.0)
        assert first.send_ecs and first.use_loopback
        assert not engine.decide(WWW, RecordType.A, AUTH, 100.0).send_ecs
        again = engine.decide(WWW, RecordType.A, AUTH, 1800.0)
        assert again.send_ecs

    def test_interval_tracked_per_authoritative(self):
        policy = EcsPolicy(probing=ProbingStrategy.INTERVAL_LOOPBACK)
        engine = ProbingEngine(policy)
        engine.decide(WWW, RecordType.A, AUTH, 0.0)
        other = engine.decide(WWW, RecordType.A, "198.51.100.5", 1.0)
        assert other.send_ecs

    def test_interval_own_address(self):
        policy = EcsPolicy(probing=ProbingStrategy.INTERVAL_OWN_ADDRESS)
        decision = ProbingEngine(policy).decide(WWW, RecordType.A, AUTH, 0.0)
        assert decision.send_ecs and decision.use_own_address

    def test_note_response_records_support(self):
        engine = ProbingEngine(EcsPolicy())
        engine.note_response(AUTH, True)
        assert engine.state_for(AUTH).supports_ecs is True
        engine.note_response(AUTH, False)
        assert engine.state_for(AUTH).supports_ecs is False


class TestBuildQueryEcs:
    def test_no_send(self):
        assert build_query_ecs(EcsPolicy(), EcsDecision(False),
                               "10.0.0.1", "1.1.1.1") is None

    def test_default_truncation(self):
        opt = build_query_ecs(EcsPolicy(), EcsDecision(True),
                              "10.1.2.3", "1.1.1.1")
        assert opt.source_prefix_length == 24
        assert opt.address_text == "10.1.2.0"

    def test_v6_truncation(self):
        opt = build_query_ecs(EcsPolicy(), EcsDecision(True),
                              "2001:db8:1:2:3::4", "1.1.1.1")
        assert opt.source_prefix_length == 56

    def test_loopback_probe(self):
        opt = build_query_ecs(EcsPolicy(), EcsDecision(True, use_loopback=True),
                              "10.1.2.3", "1.1.1.1")
        assert opt.address_text == "127.0.0.1"
        assert opt.source_prefix_length == 32

    def test_own_address_probe(self):
        # The paper's recommendation: the resolver's *public* address.
        opt = build_query_ecs(EcsPolicy(),
                              EcsDecision(True, use_own_address=True),
                              "10.1.2.3", "198.51.7.9")
        assert opt.covers("198.51.7.9", bits=opt.source_prefix_length)

    def test_jammed_last_byte(self):
        policy = EcsPolicy(jam_last_byte=0x01)
        opt = build_query_ecs(policy, EcsDecision(True), "10.1.2.200",
                              "1.1.1.1")
        assert opt.source_prefix_length == 32
        assert opt.address_text == "10.1.2.1"

    def test_jammed_zero(self):
        policy = EcsPolicy(jam_last_byte=0x00)
        opt = build_query_ecs(policy, EcsDecision(True), "10.1.2.200",
                              "1.1.1.1")
        assert opt.address_text == "10.1.2.0"
        assert opt.source_prefix_length == 32

    def test_fixed_private_prefix(self):
        policy = EcsPolicy(fixed_prefix="10.0.0.0", fixed_prefix_len=8)
        opt = build_query_ecs(policy, EcsDecision(True), "93.184.216.34",
                              "1.1.1.1")
        assert opt.address_text == "10.0.0.0"
        assert opt.source_prefix_length == 8
        assert not opt.is_routable()

    def test_client_ecs_forwarded_when_accepted(self):
        policy = EcsPolicy(accept_client_ecs=True)
        incoming = EcsOption.from_client_address("93.184.1.2", 24)
        opt = build_query_ecs(policy, EcsDecision(True), "10.0.0.1",
                              "1.1.1.1", incoming)
        assert opt.network() == incoming.network()

    def test_client_ecs_clamped(self):
        policy = EcsPolicy(accept_client_ecs=True, max_accepted_prefix_v4=22)
        incoming = EcsOption.from_client_address("93.184.1.2", 32)
        opt = build_query_ecs(policy, EcsDecision(True), "10.0.0.1",
                              "1.1.1.1", incoming)
        assert opt.source_prefix_length == 22

    def test_client_ecs_default_clamp_is_24(self):
        policy = EcsPolicy(accept_client_ecs=True)
        incoming = EcsOption.from_client_address("93.184.1.2", 32)
        opt = build_query_ecs(policy, EcsDecision(True), "10.0.0.1",
                              "1.1.1.1", incoming)
        assert opt.source_prefix_length == 24

    def test_client_ecs_over_24_kept_by_acceptor(self):
        opt = build_query_ecs(behaviors.OVER_24_ACCEPTOR, EcsDecision(True),
                              "10.0.0.1", "1.1.1.1",
                              EcsOption.from_client_address("93.184.1.2", 32))
        assert opt.source_prefix_length == 32

    def test_client_ecs_ignored_when_not_accepted(self):
        incoming = EcsOption.from_client_address("93.184.1.2", 24)
        opt = build_query_ecs(EcsPolicy(), EcsDecision(True), "10.0.0.1",
                              "1.1.1.1", incoming)
        assert opt.address_text == "10.0.0.0"

    def test_with_copy_helper(self):
        changed = EcsPolicy().with_(source_prefix_v4=16)
        assert changed.source_prefix_v4 == 16
        assert EcsPolicy().source_prefix_v4 == 24


class TestBehaviorPresets:
    def test_registry_complete(self):
        assert "compliant" in behaviors.PRESETS
        assert len(behaviors.PRESETS) >= 20

    def test_compliant_defaults(self):
        assert behaviors.COMPLIANT.source_prefix_v4 == 24
        assert behaviors.COMPLIANT.source_prefix_v6 == 56
        assert behaviors.COMPLIANT.enforce_scope_le_source

    def test_clamp_22_consistent(self):
        assert behaviors.CLAMP_22.max_accepted_prefix_v4 == 22
        assert behaviors.CLAMP_22.clamp_scope_bits == 22

    def test_root_violator_flags(self):
        assert behaviors.ROOT_ECS_VIOLATOR.send_ecs_to_roots
