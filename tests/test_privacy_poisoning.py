"""Tests for the privacy-leakage study and the poisoning blast radius."""

import pytest

from repro.analysis.poisoning import (compare_blast_radius,
                                      poisoning_report,
                                      run_poisoning_experiment)
from repro.analysis.privacy import (STRATEGIES, _count_client_bits,
                                    run_privacy_study)
from repro.auth import CdnAuthoritative, build_edge_pools
from repro.auth.server import AuthLogRecord
from repro.core.cache import ScopeMode
from repro.dnslib import EcsOption, Name
from repro.net import Topology, city


@pytest.mark.parametrize("address", [
    "127.0.0.1", "169.254.252.1", "10.1.2.3", "0.0.0.0", "224.0.0.1",
    "100.64.0.1", "::1", "fe80::1", "ff02::1", "2001:db8::1"])
def test_cdn_and_privacy_count_share_one_routability_rule(address):
    """The CDN's Table 2 fallback and the privacy count decide alike
    whether an ECS prefix is routable (the paper's §8.1 kinds)."""
    topology = Topology()
    pools = build_edge_pools(topology, topology.create_as("cdn", "US"),
                             [city("Chicago")])
    cdn = CdnAuthoritative("16.0.0.1", [Name.from_text("cdn.example.")],
                           pools, topology)
    width = 128 if ":" in address else 32
    ecs = EcsOption.from_client_address(address, width)
    _, hint_source, _ = cdn._resolve_hint(ecs, "192.0.2.53")
    record = AuthLogRecord(0.0, "192.0.2.53", "q.cdn.example.", 1, True,
                           address, width)
    assert (hint_source == "ecs") == \
        (_count_client_bits(record, address) == width)


class TestPrivacyStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_privacy_study(seed=3)

    def test_all_strategies_covered(self, study):
        assert set(study.by_strategy()) == \
            {name for name, _ in STRATEGIES}

    def test_always_ecs_leaks_to_plain_servers(self, study):
        always = study.by_strategy()["always_ecs"]
        assert always.ecs_to_plain_servers > 0
        assert always.client_bits_to_plain_servers > 0
        assert always.wasted_leak_fraction > 0.5

    def test_whitelist_wastes_nothing(self, study):
        whitelist = study.by_strategy()["domain_whitelist"]
        assert whitelist.ecs_to_plain_servers == 0
        assert whitelist.ecs_to_ecs_servers > 0
        assert whitelist.wasted_leak_fraction == 0.0

    def test_loopback_reveals_no_client_bits(self, study):
        loopback = study.by_strategy()["interval_loopback"]
        assert loopback.client_bits_to_plain_servers == 0
        assert loopback.client_bits_to_ecs_servers == 0

    def test_recommended_probing_reveals_no_client_bits(self, study):
        recommended = study.by_strategy()["recommended_own_address"]
        assert recommended.client_bits_to_plain_servers == 0
        # ...and it probes, so it still discovers ECS support.
        assert recommended.ecs_to_ecs_servers > 0

    def test_never_is_silent(self, study):
        never = study.by_strategy()["never"]
        assert never.ecs_to_ecs_servers == 0
        assert never.ecs_to_plain_servers == 0

    def test_equal_workloads(self, study):
        upstream = {o.queries_upstream for o in study.outcomes}
        # Cache behavior may differ slightly, but every resolver saw the
        # same client workload; upstream counts stay within a small band.
        assert max(upstream) <= min(upstream) * 1.5

    def test_report(self, study):
        text = study.report()
        assert "always_ecs" in text and "wasted" in text


class TestPoisoning:
    def test_honor_cache_confines_poison_to_victim(self):
        outcome = run_poisoning_experiment(ScopeMode.HONOR)
        assert outcome.victim_fraction == 1.0
        assert outcome.collateral_fraction == 0.0
        assert not outcome.monitor_visible

    def test_ignore_cache_spreads_poison(self):
        outcome = run_poisoning_experiment(ScopeMode.IGNORE)
        assert outcome.victim_fraction == 1.0
        assert outcome.collateral_fraction == 1.0
        assert outcome.monitor_visible

    def test_narrow_scope_narrows_radius(self):
        outcome = run_poisoning_experiment(ScopeMode.HONOR, forged_scope=32,
                                           victim_subnet="100.64.10.1")
        # A /32-scoped forgery hits at most the single victim address.
        assert outcome.victim_clients_poisoned <= 1
        assert outcome.collateral_fraction == 0.0

    def test_wide_scope_widens_radius(self):
        outcome = run_poisoning_experiment(
            ScopeMode.HONOR, forged_scope=10,
            victim_subnet="100.64.0.0",
            other_subnets=("100.64.200.0", "100.99.1.0", "203.0.114.0"))
        # /10 covers 100.64/10: the 100.64.200.0 and 100.99.1.0 subnets
        # fall inside, 203.0.114.0 does not.
        assert 0.0 < outcome.collateral_fraction < 1.0

    def test_compare_and_report(self):
        outcomes = compare_blast_radius()
        assert [o.cache_mode for o in outcomes] == ["honor", "ignore"]
        text = poisoning_report(outcomes)
        assert "blast radius" in text
        assert "invisible" in text and "visible" in text
