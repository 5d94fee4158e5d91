"""Tests for the measurement tooling: scanner, caching prober, Atlas."""

from collections import Counter

import pytest

from repro.core.classify import CachingCategory
from repro.datasets import ScanUniverseBuilder
from repro.measure import AtlasPlatform, CachingBehaviorProber, StubClient
from repro.net import Network, Topology, same_prefix


def by_ingress_ip(scan_result):
    """The scan's records grouped by the ingress they probed."""
    out = {}
    for record in scan_result.records:
        if record.ingress_ip:
            out.setdefault(record.ingress_ip, []).append(record)
    return out


class TestScanner:
    def test_all_forwarders_respond(self, scan_universe, scan_result):
        assert scan_result.responding_ingress == \
            set(scan_universe.forwarder_ips)

    def test_every_probe_logged_with_ingress(self, scan_result):
        with_ingress = [r for r in scan_result.records if r.ingress_ip]
        assert len(with_ingress) == len(scan_result.records)

    def test_ecs_fraction_substantial(self, scan_universe, scan_result):
        # Most chains go through MegaDNS or other ECS egress.
        assert len(scan_result.ecs_ingress) > \
            0.5 * len(scan_universe.forwarder_ips)

    def test_no_ecs_egress_absent_from_ecs_set(self, scan_universe,
                                               scan_result):
        no_ecs_ips = {s.ip for s in scan_universe.egress_specs
                      if s.policy_name == "no_ecs"}
        assert not (no_ecs_ips & scan_result.ecs_egress)

    def test_megadns_egress_discovered(self, scan_universe, scan_result):
        assert set(scan_universe.megadns.egress_ips) & scan_result.ecs_egress

    def test_ingress_as_egress_chains_observed(self, scan_universe,
                                               scan_result):
        self_chains = [c for c in scan_universe.chains
                       if c.forwarder_ip == c.egress_ip]
        assert self_chains
        by_ingress = by_ingress_ip(scan_result)
        for chain in self_chains[:3]:
            records = by_ingress.get(chain.forwarder_ip, [])
            assert records and records[0].egress_ip == chain.forwarder_ip

    def test_hidden_chain_ecs_is_hidden_prefix(self, scan_universe,
                                               scan_result):
        # Restrict to MegaDNS chains: fixed-prefix egress (loopback
        # senders etc.) put their configured prefix in ECS instead.
        hidden_chains = [c for c in scan_universe.chains
                         if c.hidden_ips and c.via_megadns]
        by_ingress = by_ingress_ip(scan_result)
        checked = 0
        for chain in hidden_chains:
            for record in by_ingress.get(chain.forwarder_ip, []):
                if not record.has_ecs or record.ecs_address is None:
                    continue
                assert same_prefix(record.ecs_address, chain.hidden_ips[0],
                                   24)
                checked += 1
        assert checked > 0

    def test_direct_chain_ecs_covers_forwarder(self, scan_universe,
                                               scan_result):
        direct = [c for c in scan_universe.chains
                  if not c.hidden_ips and c.forwarder_ip != c.egress_ip]
        by_ingress = by_ingress_ip(scan_result)
        checked = 0
        for chain in direct[:20]:
            for record in by_ingress.get(chain.forwarder_ip, []):
                if record.has_ecs and record.ecs_address:
                    assert same_prefix(record.ecs_address, chain.forwarder_ip,
                                       24)
                    checked += 1
        assert checked > 0


class TestCachingProber:
    @pytest.fixture(scope="class")
    def reports(self):
        universe = ScanUniverseBuilder(seed=13, ingress_count=40).build()
        prober = CachingBehaviorProber(universe)
        truth = {s.ip: s.policy_name for s in universe.egress_specs}
        return universe, prober.probe_all(), prober.probe_megadns(), truth

    def test_reprobing_a_universe_classifies_it_alike(self):
        """Trial names restart for every prober, so a trial may count only
        the arrivals logged since it began, not an earlier prober's."""
        universe = ScanUniverseBuilder(seed=13, ingress_count=40).build()
        rounds = []
        for _ in range(2):
            prober = CachingBehaviorProber(universe)
            rounds.append((Counter(r.category for r in prober.probe_all()),
                           prober.probe_megadns().category))
        assert rounds[0] == rounds[1]
        assert rounds[0][0][CachingCategory.CORRECT] > 0

    def _by_policy(self, reports, truth, policy):
        return [r for r in reports if truth[r.resolver_ip] == policy]

    def test_compliant_classified_correct(self, reports):
        _, all_reports, _, truth = reports
        for r in self._by_policy(all_reports, truth, "compliant"):
            assert r.category is CachingCategory.CORRECT

    def test_scope_ignorers_detected(self, reports):
        _, all_reports, _, truth = reports
        found = self._by_policy(all_reports, truth, "scope_ignorer")
        assert found
        assert all(r.category is CachingCategory.IGNORES_SCOPE for r in found)

    def test_over_24_detected(self, reports):
        _, all_reports, _, truth = reports
        found = self._by_policy(all_reports, truth, "over_24_acceptor")
        assert found
        assert all(r.category is CachingCategory.ACCEPTS_OVER_24
                   for r in found)
        assert all(r.outcome.max_prefix_forwarded == 32 for r in found)

    def test_clamp_22_detected(self, reports):
        _, all_reports, _, truth = reports
        found = self._by_policy(all_reports, truth, "clamp_22")
        assert found
        assert all(r.category is CachingCategory.CLAMPS_AT_22 for r in found)

    def test_private_prefix_detected(self, reports):
        _, all_reports, _, truth = reports
        found = self._by_policy(all_reports, truth, "private_prefix_sender")
        assert found
        assert all(r.category is CachingCategory.PRIVATE_PREFIX
                   for r in found)

    def test_megadns_is_correct(self, reports):
        _, _, megadns_report, _ = reports
        assert megadns_report is not None
        assert megadns_report.category is CachingCategory.CORRECT

    def test_no_ecs_resolvers_skipped(self, reports):
        _, all_reports, _, truth = reports
        assert all(truth[r.resolver_ip] != "no_ecs" for r in all_reports)


class TestAtlas:
    def test_probe_population(self):
        net = Network(Topology())
        atlas = AtlasPlatform(net, probe_count=60, seed=1)
        assert len(atlas.probes) == 60
        assert atlas.countries() > 5
        assert atlas.ases() == atlas.countries()

    def test_handshake_scales_with_distance(self):
        from repro.net import city
        net = Network(Topology(), advance_clock=False)
        atlas = AtlasPlatform(net, probe_count=30, seed=1)
        target_as = net.topology.create_as("t", "US")
        near_target = target_as.host_in(atlas.probes[0].city)
        far_city = city("Tokyo") if atlas.probes[0].city.name != "Tokyo" \
            else city("London")
        far_target = target_as.host_in(far_city)
        probe = atlas.probes[0]
        assert probe.tcp_handshake_ms(net, near_target) < \
            probe.tcp_handshake_ms(net, far_target)

    def test_deterministic_with_seed(self):
        net1 = Network(Topology())
        net2 = Network(Topology())
        a1 = AtlasPlatform(net1, probe_count=25, seed=9)
        a2 = AtlasPlatform(net2, probe_count=25, seed=9)
        assert [p.ip for p in a1.probes] == [p.ip for p in a2.probes]


class TestStubClient:
    def test_dig_result_fields(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query(small_world.resolver_ip, "www.example.com")
        assert result.first_address == "93.184.216.34"
        assert result.elapsed_ms > 0
        assert result.scope is None

    def test_query_with_subnet(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query_with_subnet(small_world.cdn.ip,
                                          "video.cdn.example",
                                          "16.50.0.0", 24)
        assert result.scope is not None

    def test_timeout_result(self, small_world):
        client = StubClient(small_world.client_ip, small_world.net)
        result = client.query("200.200.200.200", "www.example.com")
        assert result.response is None
        assert result.rcode is None
        assert result.addresses == []
