"""Every ``QueryOutcome(timed_out=True)`` consumer must survive silence.

A total blackout — 100% packet loss via the fault-injection layer —
forces the None-response path through each measurement driver: the scan
campaign, the caching-behavior prober, the scope-reaction prober, and
the recursive resolver's upstream ladder.  None of them may raise; they
report empty/partial results instead.
"""

import pytest

from repro.datasets import ScanUniverseBuilder
from repro.faults import FaultPlan, OutageSpec, PacketLossSpec
from repro.measure import Scanner
from repro.measure.caching_probe import CachingBehaviorProber
from repro.measure.digclient import StubClient
from repro.measure.scope_reaction import ScopeReactionProber
from repro.dnslib import Rcode
from repro.net.transport import FaultAction

BLACKOUT = FaultPlan("blackout", (PacketLossSpec(rate=1.0),))


def _blackout_universe(ingress_count=6, seed=5):
    universe = ScanUniverseBuilder(seed=seed,
                                   ingress_count=ingress_count).build()
    universe.net.install_injector(BLACKOUT.bind(0, 0))
    return universe


class TestBlackoutConsumers:
    @pytest.mark.parametrize("consumer",
                             ["scanner", "caching", "scope_reaction"])
    def test_consumer_survives_total_blackout(self, consumer):
        universe = _blackout_universe()
        if consumer == "scanner":
            result = Scanner(universe).scan()
            assert result.responding_ingress == set()
            assert result.records == []
        elif consumer == "caching":
            prober = CachingBehaviorProber(universe)
            reports = prober.probe_all()
            assert isinstance(reports, list)
            assert prober.probe_megadns() is None or True  # no raise
        else:
            prober = ScopeReactionProber(universe)
            outcome = prober.probe(universe.other_egress[0].ip,
                                   queries_per_phase=2)
            assert outcome.adapts is None
            assert all(phase == []
                       for phase in outcome.observed_source_lengths)

    def test_caching_probe_direct_reports_unknowns(self):
        universe = _blackout_universe()
        report = CachingBehaviorProber(universe).probe_direct(
            universe.other_egress[0].ip)
        # Nothing answered, so no caching property can be asserted.
        assert report.outcome.second_query_seen_scope24 is None
        assert report.outcome.second_query_seen_scope16 is None
        assert report.resolver_ip == universe.other_egress[0].ip

    def test_partial_outage_is_contained(self):
        # Silencing one forwarder must not take down the rest of the scan.
        universe = ScanUniverseBuilder(seed=5, ingress_count=6).build()
        target = universe.forwarder_ips[0]
        plan = FaultPlan("one-down",
                         (OutageSpec(start_s=0.0, end_s=1e12, dst=target),))
        universe.net.install_injector(plan.bind(0, 0))
        result = Scanner(universe).scan()
        assert target not in result.responding_ingress
        assert len(result.responding_ingress) > 0


class _DropQueriesFrom:
    """Injector dropping every query one address sends."""

    def __init__(self, src):
        self.src = src

    def on_query(self, src_ip, dst_ip, message, tcp, now):
        return FaultAction("test", drop=True) if src_ip == self.src else None

    def on_response(self, src_ip, dst_ip, response, tcp, now):
        return None


class TestRecursiveUpstreamBlackout:
    def test_client_gets_servfail_not_an_exception(self, small_world):
        # Drop everything the resolver sends upstream; the client's
        # query must come back SERVFAIL, never raise through the stack.
        resolver_ip = small_world.resolver_ip
        small_world.net.install_injector(_DropQueriesFrom(resolver_ip))
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(resolver_ip, "www.example.com.")
        assert result.response is not None
        assert result.response.rcode == Rcode.SERVFAIL
        assert result.addresses == []

    def test_resolver_recovers_after_filters_clear(self, small_world):
        resolver_ip = small_world.resolver_ip
        small_world.net.install_injector(_DropQueriesFrom(resolver_ip))
        client = StubClient(small_world.client_ip, small_world.net)
        first = client.query(resolver_ip, "www.example.com.")
        assert first.response.rcode == Rcode.SERVFAIL
        small_world.net.install_injector(None)
        second = client.query(resolver_ip, "www.example.com.")
        assert second.response.rcode == Rcode.NOERROR
        assert "93.184.216.34" in second.addresses
