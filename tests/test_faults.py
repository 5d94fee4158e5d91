"""Chaos test layer for :mod:`repro.faults`.

Certifies the fault-injection contract end to end: injector streams are
deterministic functions of (plan, fault seed, shard index); composed
plans fold actions predictably; the shared retry ladder honors its
bounds and the RFC 7871 §7.1 no-ECS downgrade; and a chaos campaign
produces byte-identical reports and metrics at every ``--workers``
count while degrading gracefully — never crashing — up to 30% loss.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnslib import (EcsOption, Message, Name, Rcode, RecordType,
                          decode_message, encode_message)
from repro.faults import (BurstLossSpec, EcsStripSpec, FaultPlan,
                          LatencyJitterSpec, LatencySpikeSpec, OutageSpec,
                          PacketLossSpec, RcodeFaultSpec, RetryPolicy,
                          TruncationSpec, backoff_delay_ms, backoff_jitter,
                          execute_with_retries, preset, preset_names,
                          run_chaos)
from repro.measure.digclient import StubClient
from repro.net import Network, Topology, city
from repro.obs import observe
from repro.obs.export import to_prometheus

QNAME = Name.from_text("www.example.com.")
ECS = EcsOption.from_client_address("192.0.2.77", 24)


def _query(ecs=None, use_edns=True, msg_id=1):
    return Message.make_query(QNAME, RecordType.A, msg_id=msg_id,
                              use_edns=use_edns, ecs=ecs)


def _drop_pattern(bound, n, ecs=None):
    """The drop/no-drop decision sequence of a bound injector or plan."""
    pattern = []
    for i in range(n):
        action = bound.on_query("10.0.0.1", "10.0.0.2",
                                _query(ecs=ecs, msg_id=i + 1), False, 0.0)
        pattern.append(action is not None and action.drop)
    return pattern


# -- endpoints with scripted pathologies -----------------------------------


class _Echo:
    """Answers every query with an empty NOERROR response."""

    def __init__(self, ip):
        self.ip = ip
        self.queries = []

    def handle_datagram(self, wire, src_ip, net, tcp=False):
        msg = decode_message(wire)
        self.queries.append((msg, tcp))
        return encode_message(self._respond(msg, tcp))

    def _respond(self, msg, tcp):
        return msg.make_response()


class _FormerrOnEcs(_Echo):
    """An authoritative that chokes on the ECS option (RFC 7871 §7.1)."""

    def _respond(self, msg, tcp):
        resp = msg.make_response()
        if msg.ecs() is not None:
            resp.rcode = Rcode.FORMERR
        return resp


class _FormerrOnEdns(_Echo):
    """A pre-EDNS0 server: FORMERR on any OPT record (RFC 6891 §7)."""

    def _respond(self, msg, tcp):
        resp = msg.make_response()
        if msg.edns is not None:
            resp.rcode = Rcode.FORMERR
        return resp


class _Truncating(_Echo):
    """Truncates every UDP answer; completes over TCP."""

    def _respond(self, msg, tcp):
        resp = msg.make_response()
        if not tcp:
            resp.truncated = True
        return resp


def _net_pair():
    topo = Topology()
    net = Network(topo)
    as_ = topo.create_as("t", "US")
    return net, as_.host_in(city("Cleveland")), as_.host_in(city("Tokyo"))


# -- injector specs --------------------------------------------------------


class TestInjectors:
    def test_loss_stream_deterministic(self):
        spec = PacketLossSpec(rate=0.5)
        first = _drop_pattern(spec.bind(random.Random(42)), 64)
        again = _drop_pattern(spec.bind(random.Random(42)), 64)
        assert first == again
        assert True in first and False in first

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(min_value=0.05, max_value=0.5),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_loss_rate_converges(self, rate, seed):
        bound = PacketLossSpec(rate=rate).bind(random.Random(seed))
        n = 2000
        drops = sum(_drop_pattern(bound, n))
        assert abs(drops / n - rate) < 0.06

    def test_loss_direction_filter(self):
        bound = PacketLossSpec(rate=1.0, direction="response").bind(
            random.Random(0))
        assert bound.on_query("a", "b", _query(), False, 0.0) is None
        action = bound.on_response("a", "b", _query(), False, 0.0)
        assert action is not None and action.drop

    def test_loss_dst_filter(self):
        bound = PacketLossSpec(rate=1.0, dst="10.9.9.9").bind(
            random.Random(0))
        assert bound.on_query("a", "10.0.0.1", _query(), False, 0.0) is None
        assert bound.on_query("a", "10.9.9.9", _query(), False, 0.0).drop

    def test_burst_loss_is_correlated_and_deterministic(self):
        spec = BurstLossSpec(p_enter_burst=0.1, p_exit_burst=0.3,
                             loss_good=0.0, loss_burst=1.0)
        pattern = _drop_pattern(spec.bind(random.Random(7)), 400)
        assert pattern == _drop_pattern(spec.bind(random.Random(7)), 400)
        # With loss only inside bursts, drops must arrive in runs: at
        # least one run of >= 2 consecutive drops in 400 datagrams.
        runs = []
        current = 0
        for dropped in pattern:
            current = current + 1 if dropped else 0
            runs.append(current)
        assert max(runs) >= 2

    def test_burst_loss_links_independent(self):
        bound = BurstLossSpec(loss_good=0.0, loss_burst=1.0,
                              p_enter_burst=1.0, p_exit_burst=0.0).bind(
            random.Random(0))
        # First datagram on a fresh link advances good->burst, then drops.
        assert bound.on_query("a", "b", _query(), False, 0.0).drop
        assert bound.on_query("c", "d", _query(), False, 0.0).drop
        assert set(bound._burst) == {("a", "b"), ("c", "d")}

    def test_jitter_bounds(self):
        bound = LatencyJitterSpec(max_extra_ms=25.0).bind(random.Random(3))
        for i in range(100):
            action = bound.on_query("a", "b", _query(msg_id=i + 1),
                                    False, 0.0)
            assert action is not None
            assert 0.0 <= action.extra_one_way_ms <= 25.0
            assert not action.drop

    def test_spike_probability_extremes(self):
        never = LatencySpikeSpec(probability=0.0).bind(random.Random(0))
        always = LatencySpikeSpec(probability=1.0, extra_ms=500.0).bind(
            random.Random(0))
        assert never.on_query("a", "b", _query(), False, 0.0) is None
        action = always.on_query("a", "b", _query(), False, 0.0)
        assert action.extra_one_way_ms == 500.0

    def test_truncation_skips_tcp_and_already_truncated(self):
        bound = TruncationSpec(probability=1.0).bind(random.Random(0))
        resp = _query().make_response()
        assert bound.on_response("a", "b", resp, True, 0.0) is None
        resp.truncated = True
        assert bound.on_response("a", "b", resp, False, 0.0) is None
        fresh = _query().make_response()
        action = bound.on_response("a", "b", fresh, False, 0.0)
        assert action is not None and action.truncate

    def test_rcode_fault_only_hits_ecs_queries(self):
        bound = RcodeFaultSpec(rcode=Rcode.FORMERR, probability=1.0,
                               only_ecs=True).bind(random.Random(0))
        assert bound.on_query("a", "b", _query(), False, 0.0) is None
        action = bound.on_query("a", "b", _query(ecs=ECS), False, 0.0)
        assert action.rcode == Rcode.FORMERR
        assert action.kind == "rcode-formerr"

    def test_ecs_strip_replaces_without_mutating_original(self):
        bound = EcsStripSpec().bind(random.Random(0))
        assert bound.on_query("a", "b", _query(), False, 0.0) is None
        original = _query(ecs=ECS)
        action = bound.on_query("a", "b", original, False, 0.0)
        assert action.replace is not None
        assert action.replace.ecs() is None
        assert original.ecs() == ECS  # middlebox rewrote a copy

    def test_outage_window_is_time_driven(self):
        bound = OutageSpec(start_s=10.0, end_s=20.0).bind(random.Random(0))
        assert bound.on_query("a", "b", _query(), False, 9.999) is None
        assert bound.on_query("a", "b", _query(), False, 10.0).drop
        assert bound.on_response("a", "b", _query(), False, 19.999).drop
        assert bound.on_query("a", "b", _query(), False, 20.0) is None


# -- plan composition ------------------------------------------------------


class TestFaultPlan:
    def test_bind_is_deterministic_per_seed_and_shard(self):
        plan = FaultPlan("p", (PacketLossSpec(rate=0.5),))
        same = [_drop_pattern(plan.bind(11, 0), 64) for _ in range(2)]
        assert same[0] == same[1]
        other_shard = _drop_pattern(plan.bind(11, 1), 64)
        other_seed = _drop_pattern(plan.bind(12, 0), 64)
        assert same[0] != other_shard
        assert same[0] != other_seed

    def test_injector_streams_independent(self):
        # Adding an injector must not perturb another's stream.
        lone = FaultPlan("p", (PacketLossSpec(rate=0.5),))
        paired = FaultPlan("p", (PacketLossSpec(rate=0.5),
                                 LatencyJitterSpec(max_extra_ms=5.0)))
        assert _drop_pattern(lone.bind(3, 0), 64) == \
            _drop_pattern(paired.bind(3, 0), 64)

    def test_latencies_sum_and_kinds_join(self):
        plan = FaultPlan("p", (LatencyJitterSpec(max_extra_ms=10.0),
                               LatencySpikeSpec(probability=1.0,
                                                extra_ms=500.0)))
        bound = plan.bind(0)
        action = bound.on_query("a", "b", _query(), False, 0.0)
        assert action.kind == "jitter+spike"
        assert 500.0 <= action.extra_one_way_ms <= 510.0
        assert bound.injected == {"jitter": 1, "spike": 1}

    def test_drop_short_circuits_later_injectors(self):
        plan = FaultPlan("p", (PacketLossSpec(rate=1.0),
                               LatencySpikeSpec(probability=1.0)))
        bound = plan.bind(0)
        action = bound.on_query("a", "b", _query(), False, 0.0)
        assert action.drop and action.kind == "loss"
        assert bound.injected == {"loss": 1}

    def test_replacement_visible_downstream(self):
        # The ECS-stripping middlebox runs first, so the rcode fault
        # (only_ecs) sees a query without the option and stays quiet.
        plan = FaultPlan("p", (EcsStripSpec(),
                               RcodeFaultSpec(only_ecs=True)))
        action = plan.bind(0).on_query("a", "b", _query(ecs=ECS),
                                       False, 0.0)
        assert action.kind == "ecs-strip"
        assert action.rcode is None
        assert action.replace.ecs() is None

    def test_no_fault_returns_none(self):
        plan = FaultPlan("p", (RcodeFaultSpec(only_ecs=True),))
        assert plan.bind(0).on_query("a", "b", _query(), False, 0.0) is None

    def test_preset_registry(self):
        assert "lossy" in preset_names()
        with pytest.raises(KeyError):
            preset("no-such-scenario")


# -- retry policy and ladder -----------------------------------------------


class TestRetryLadder:
    @settings(max_examples=30, deadline=None)
    @given(max_attempts=st.integers(min_value=1, max_value=4),
           servers=st.integers(min_value=1, max_value=3),
           tcp_on_truncation=st.booleans())
    def test_attempts_bounded_under_total_loss(self, max_attempts, servers,
                                               tcp_on_truncation):
        net = Network(advance_clock=False)
        policy = RetryPolicy(max_attempts=max_attempts,
                             tcp_on_truncation=tcp_on_truncation,
                             retry_without_ecs_on_formerr=True)
        ips = [f"203.0.113.{i + 1}" for i in range(servers)]  # no endpoints
        outcome = execute_with_retries(
            net, "10.0.0.1", ips, lambda edns, ecs: _query(), policy)
        assert outcome.timed_out and outcome.response is None
        assert outcome.attempts == len(ips) * max_attempts
        # Failover is not a retry; only re-attempts of one server count.
        assert outcome.retries == outcome.attempts - len(ips)
        assert outcome.elapsed_ms == outcome.attempts * Network.TIMEOUT_MS

    def test_requires_a_server(self):
        with pytest.raises(ValueError):
            execute_with_retries(Network(), "10.0.0.1", (),
                                 lambda edns, ecs: _query(), RetryPolicy())

    def test_failover_reaches_second_server(self):
        net, a, b = _net_pair()
        net.attach(_Echo(b))
        outcome = execute_with_retries(
            net, a, ("203.0.113.1", b), lambda edns, ecs: _query(),
            RetryPolicy(max_attempts=1))
        assert outcome.response is not None
        assert outcome.server_ip == b
        assert outcome.attempts == 2 and not outcome.timed_out

    def test_formerr_triggers_noecs_downgrade(self):
        net, a, b = _net_pair()
        server = _FormerrOnEcs(b)
        net.attach(server)
        policy = RetryPolicy(retry_without_ecs_on_formerr=True)
        with observe(metrics=True) as session:
            outcome = execute_with_retries(
                net, a, (b,),
                lambda edns, ecs: _query(ecs=ECS if ecs else None),
                policy, site="testsite")
        assert outcome.response.rcode == Rcode.NOERROR
        assert outcome.ecs_downgraded and not outcome.edns_downgraded
        assert outcome.attempts == 2 and outcome.retries == 1
        assert outcome.query_ecs is None  # the answered query had no ECS
        assert [q.ecs() is not None for q, _ in server.queries] == \
            [True, False]
        registry = session.registry
        assert registry.get("repro_ecs_downgrades_total").value(
            "testsite") == 1
        assert registry.get("repro_retries_total").value(
            "testsite", "formerr_noecs") == 1

    def test_formerr_walks_full_ladder_to_plain_dns(self):
        net, a, b = _net_pair()
        server = _FormerrOnEdns(b)
        net.attach(server)
        policy = RetryPolicy(retry_without_ecs_on_formerr=True,
                             retry_without_edns_on_formerr=True)
        outcome = execute_with_retries(
            net, a, (b,),
            lambda edns, ecs: _query(ecs=ECS if ecs else None,
                                     use_edns=edns),
            policy)
        assert outcome.response.rcode == Rcode.NOERROR
        assert outcome.ecs_downgraded and outcome.edns_downgraded
        assert outcome.attempts == 3
        assert server.queries[-1][0].edns is None

    def test_timed_out_outcome_names_pre_edns_server(self):
        # A server that FORMERRs on EDNS and then never answers plain DNS
        # is still reported as pre-EDNS0, so a resolver can remember it.
        class _FormerrThenSilent(_FormerrOnEdns):
            def handle_datagram(self, wire, src_ip, net, tcp=False):
                response = super().handle_datagram(wire, src_ip, net, tcp)
                edns = self.queries[-1][0].edns
                return response if edns is not None else None

        net, a, b = _net_pair()
        net.attach(_FormerrThenSilent(b))
        policy = RetryPolicy(retry_without_ecs_on_formerr=True,
                             retry_without_edns_on_formerr=True)
        outcome = execute_with_retries(
            net, a, (b,),
            lambda edns, ecs: _query(ecs=ECS if ecs else None,
                                     use_edns=edns),
            policy)
        assert outcome.timed_out and outcome.response is None
        assert outcome.edns_downgraded and not outcome.ecs_downgraded
        assert outcome.attempts == 3

    def test_formerr_reported_when_downgrades_disabled(self):
        net, a, b = _net_pair()
        net.attach(_FormerrOnEcs(b))
        outcome = execute_with_retries(
            net, a, (b,), lambda edns, ecs: _query(ecs=ECS),
            RetryPolicy())  # dig-like: no silent downgrades
        assert outcome.response.rcode == Rcode.FORMERR
        assert outcome.attempts == 1 and outcome.retries == 0

    def test_truncation_retried_over_tcp(self):
        net, a, b = _net_pair()
        server = _Truncating(b)
        net.attach(server)
        outcome = execute_with_retries(
            net, a, (b,), lambda edns, ecs: _query(), RetryPolicy())
        assert outcome.response is not None
        assert not outcome.response.truncated
        assert outcome.attempts == 2 and outcome.retries == 1
        assert [tcp for _, tcp in server.queries] == [False, True]


class TestBackoff:
    def test_jitter_pure_and_bounded(self):
        values = {backoff_jitter("site", "1.2.3.4", attempt)
                  for attempt in range(32)}
        assert len(values) == 32
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert backoff_jitter("site", "1.2.3.4", 0) == \
            backoff_jitter("site", "1.2.3.4", 0)

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_ms=100.0)
        delays = [backoff_delay_ms(policy, "s", "ip", i, i)
                  for i in range(3)]
        assert delays == [100.0, 200.0, 400.0]

    def test_jittered_delay_stays_in_band(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter_fraction=0.5)
        for attempt in range(16):
            delay = backoff_delay_ms(policy, "s", "ip", 0, attempt)
            assert 50.0 <= delay <= 150.0

    def test_backoff_advances_virtual_clock(self):
        net = Network()
        policy = RetryPolicy(max_attempts=2, backoff_base_ms=300.0)
        before = net.clock.now()
        outcome = execute_with_retries(
            net, "10.0.0.1", ("203.0.113.1",),
            lambda edns, ecs: _query(), policy)
        delta_ms = (net.clock.now() - before) * 1000.0
        # Two timeouts plus one backoff wait, all on the virtual clock.
        assert delta_ms == pytest.approx(2 * Network.TIMEOUT_MS + 300.0)
        assert outcome.elapsed_ms == pytest.approx(delta_ms)


# -- stub client elapsed-time regression -----------------------------------


class TestStubClientElapsed:
    def test_tcp_fallback_charges_both_legs_once(self):
        # Regression: elapsed_ms on a UDP->TCP truncation fallback must
        # equal the virtual time the exchange actually took — the UDP
        # leg plus the TCP leg, each counted exactly once.
        net, a, b = _net_pair()
        net.attach(_Truncating(b))
        client = StubClient(a, net)
        before = net.clock.now()
        result = client.query(b, "www.example.com.")
        delta_ms = (net.clock.now() - before) * 1000.0
        assert result.elapsed_ms == pytest.approx(delta_ms)
        assert result.response is not None
        assert not result.response.truncated
        assert client.attempts == 2 and client.retries == 1

    def test_single_leg_unchanged(self):
        net, a, b = _net_pair()
        net.attach(_Echo(b))
        client = StubClient(a, net)
        before = net.clock.now()
        result = client.query(b, "www.example.com.")
        delta_ms = (net.clock.now() - before) * 1000.0
        assert result.elapsed_ms == pytest.approx(delta_ms)
        assert client.attempts == 1 and client.retries == 0

    def test_retry_on_truncation_opt_out(self):
        net, a, b = _net_pair()
        net.attach(_Truncating(b))
        client = StubClient(a, net)
        result = client.query(b, "www.example.com.",
                              retry_on_truncation=False)
        assert result.response.truncated
        assert client.attempts == 1 and client.retries == 0


# -- chaos campaigns -------------------------------------------------------


class TestChaos:
    def test_workers_do_not_change_results_or_metrics(self):
        # The acceptance bar: same plan + seeds at --workers 1 vs 4
        # produce an identical report and byte-identical metrics.
        runs = {}
        for workers in (1, 4):
            with observe(metrics=True) as session:
                result, engine = run_chaos(
                    preset("lossy"), seed=3, fault_seed=7, ingress=24,
                    shards=4, workers=workers)
            runs[workers] = (result, engine,
                             to_prometheus(session.registry))
        r1, e1, prom1 = runs[1]
        r4, e4, prom4 = runs[4]
        assert r1.report() == r4.report()
        assert prom1 == prom4
        assert [s.records for s in e1.shards] == \
            [s.records for s in e4.shards]
        assert r1.totals == r4.totals

    def test_fault_seed_changes_the_fault_stream(self):
        plan = preset("lossy")
        assert _drop_pattern(plan.bind(1, 0), 64) != \
            _drop_pattern(plan.bind(2, 0), 64)

    def test_heavy_loss_degrades_gracefully(self):
        # 30% per-datagram loss: the campaign must complete without
        # raising, flag itself partial, and keep its tallies coherent.
        result, engine = run_chaos(preset("heavy-loss"), seed=1,
                                   fault_seed=2, ingress=12, shards=2)
        totals = result.totals
        assert totals.probes > 0
        assert totals.responded + totals.unanswered == totals.probes
        assert result.degraded
        assert totals.network.faults_injected > 0
        assert totals.faults_by_kind.get("loss", 0) > 0
        assert 0.0 <= result.response_rate <= 1.0
        assert totals.attempts >= totals.probes
        assert "partial results" in result.report()

    def test_clean_preset_is_not_degraded(self):
        result, _ = run_chaos(preset("clean"), seed=1, fault_seed=2,
                              ingress=8, shards=1)
        totals = result.totals
        assert totals.network.faults_injected == 0
        assert not result.degraded
        assert result.response_rate == 1.0


#: (preset, fault seed) -> (sha256 of the chaos report, merged fault
#: tallies) at ``seed=0, ingress=8, shards=2, workers=1``.  Any change to
#: an injector's draws, its filters, the plan's fold or the retry ladder
#: moves these.
CHAOS_GOLDENS = {
    ("bursty", 0): (
        "c47c723887a200be1cd69746ca290ec732fad460744aba795943b0e55a2418b3",
        {"burst-loss": 137}),
    ("bursty", 7): (
        "8032f91e10156651c2d89143cd02338d52e1b7f13cb893c8a96a36c2af9c3921",
        {"burst-loss": 141}),
    ("clean", 0): (
        "e619a6f929959a14a8acf15ef14d222d3e7c81359ea71bad776ea9d7422d75f9",
        {}),
    ("clean", 7): (
        "b1ed3cd70a2ce19c9dee00a58bc42f812d7d9f4617bd61cba93fdc35238bcccb",
        {}),
    ("ecs-hostile", 0): (
        "b53891b1cb112dd3f5f970851df7a8b30382439ca5eccbb2877b525b13345f12",
        {"ecs-strip": 140, "rcode-refused": 21}),
    ("ecs-hostile", 7): (
        "61d6052efc8c7460cb7d25ff842cec68014e786da15f2cd5c7fc0ec1cb76ecfd",
        {"ecs-strip": 168, "rcode-refused": 22}),
    ("flaky-auth", 0): (
        "5f122018b10bc311e982695bb916dfe1e97f9354099d440c4be79ad70e33e845",
        {"loss": 100, "rcode-formerr": 70}),
    ("flaky-auth", 7): (
        "e7e23764d86bea9ff97d4f616e9db189f6cf0e3c5bb2d844c0c2d55cc641bb3c",
        {"loss": 115, "rcode-formerr": 75}),
    ("heavy-loss", 0): (
        "9c030a300c41b4c56f38e32679de087bed59bb7dc06108f4e73680888825e952",
        {"loss": 568}),
    ("heavy-loss", 7): (
        "41cbbc9b4a07ba52e9dba929012c97016d25f4dc0b4846297fdac82b689a736f",
        {"loss": 573}),
    ("jittery", 0): (
        "d2deac40407dfc0dccba52472afd48cdd6d38c8d72250f528cdcbf4df705dfe7",
        {"jitter": 1038, "spike": 56}),
    ("jittery", 7): (
        "ba6799c8f2297c37f85b6146b866e476b60057c94e287179ce91ce5b2cc3ecfb",
        {"jitter": 1038, "spike": 42}),
    ("lossy", 0): (
        "57ad4ebde7898c38b0b107436913d47c3368116bb4e574748840f83114e0063c",
        {"loss": 311}),
    ("lossy", 7): (
        "aad862e0a4c7ea7a2079b9201753ac9c0394ab2cfe36a52d9d283fa2f71a5565",
        {"loss": 309}),
    ("outage", 0): (
        "9202e2c06018efef0c86ad235ea3ea57e0938d9fcc871c1f923fadb13c9a72d3",
        {"outage": 20}),
    ("outage", 7): (
        "267dcf9b9402125253009748fb6ec2012689b860ec0336e6215489cb8b68e24a",
        {"outage": 20}),
    ("truncating", 0): (
        "73be38b4d45a61f44d9718a5ba63e6f297d98f60bb2077dba06938954c73c787",
        {"truncate": 336}),
    ("truncating", 7): (
        "8b634bb2a8cddafde9e98d683ab132e8754b6c30d9be5758816e7e8f73c7f5a5",
        {"truncate": 331}),
}


def test_chaos_goldens_cover_every_preset():
    assert {name for name, _ in CHAOS_GOLDENS} == set(preset_names())


@pytest.mark.parametrize("name,fault_seed", sorted(CHAOS_GOLDENS))
def test_chaos_report_golden(name, fault_seed):
    digest, faults = CHAOS_GOLDENS[(name, fault_seed)]
    result, _ = run_chaos(preset(name), seed=0, fault_seed=fault_seed,
                          ingress=8, shards=2, workers=1)
    assert result.totals.faults_by_kind == faults
    assert hashlib.sha256(result.report().encode()).hexdigest() == digest
