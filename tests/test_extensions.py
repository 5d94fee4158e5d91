"""Tests for the section 9 (future work) extensions implemented here:
adaptive source-prefix sourcing and the overall blow-up projection."""

import pytest

from repro.analysis.cache_sim import overall_blowup
from repro.core.policies import (EcsDecision, EcsPolicy, ProbingEngine,
                                 build_query_ecs)
from repro.dnslib import Name
from repro.measure import StubClient
from repro.net import city
from repro.resolvers import RecursiveResolver

AUTH = "203.0.113.53"
WWW = Name.from_text("www.example.com")


class TestAdaptiveSourcing:
    def test_engine_tracks_latest_scope(self):
        engine = ProbingEngine(EcsPolicy(adapt_source_to_scope=True))
        assert engine.adapted_source_limit(AUTH) is None
        engine.note_response(AUTH, True, scope=16)
        assert engine.adapted_source_limit(AUTH) == 16
        engine.note_response(AUTH, True, scope=20)
        assert engine.adapted_source_limit(AUTH) == 20
        # Latest-wins: the resolver follows the server's newest policy.
        engine.note_response(AUTH, True, scope=8)
        assert engine.adapted_source_limit(AUTH) == 8
        # Zero scopes carry no granularity signal and are ignored.
        engine.note_response(AUTH, True, scope=0)
        assert engine.adapted_source_limit(AUTH) == 8

    def test_disabled_policy_returns_none(self):
        engine = ProbingEngine(EcsPolicy(adapt_source_to_scope=False))
        engine.note_response(AUTH, True, scope=16)
        assert engine.adapted_source_limit(AUTH) is None

    def test_invalid_responses_do_not_update(self):
        engine = ProbingEngine(EcsPolicy(adapt_source_to_scope=True))
        engine.note_response(AUTH, False, scope=None)
        assert engine.adapted_source_limit(AUTH) is None

    def test_source_limit_caps_built_option(self):
        opt = build_query_ecs(EcsPolicy(), EcsDecision(True), "10.1.2.3",
                              "1.1.1.1", source_limit=16)
        assert opt.source_prefix_length == 16
        assert opt.address_text == "10.1.0.0"

    def test_source_limit_never_lengthens(self):
        opt = build_query_ecs(EcsPolicy(source_prefix_v4=20),
                              EcsDecision(True), "10.1.2.3", "1.1.1.1",
                              source_limit=28)
        assert opt.source_prefix_length == 20

    def test_adaptive_resolver_shortens_after_coarse_scope(self, small_world):
        """End to end: once the CDN answers with scope 16, an adaptive
        resolver reveals only 16 bits on subsequent queries."""
        small_world.cdn.scope_v4 = 16
        ip = small_world.isp.host_in(city("Cleveland"))
        resolver = RecursiveResolver(
            ip, small_world.topology.clock, small_world.hierarchy.root_ips,
            policy=EcsPolicy(adapt_source_to_scope=True))
        small_world.net.attach(resolver)
        client = StubClient(small_world.client_ip, small_world.net)

        client.query(ip, "a.cdn.example")  # learns scope 16
        small_world.topology.clock.advance(30)
        client.query(ip, "b.cdn.example")
        last = [r for r in small_world.cdn.log if r.src_ip == ip][-1]
        assert last.ecs_source_len == 16


class TestOverallBlowup:
    def test_interpolates(self):
        assert overall_blowup(4.3, 1.0) == pytest.approx(4.3)
        assert overall_blowup(4.3, 0.0) == pytest.approx(1.0)
        assert overall_blowup(4.0, 0.5) == pytest.approx(2.5)

    def test_monotone_in_fraction(self):
        values = [overall_blowup(4.0, f) for f in (0.1, 0.4, 0.9)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            overall_blowup(4.0, 1.5)
        with pytest.raises(ValueError):
            overall_blowup(0.5, 0.5)
