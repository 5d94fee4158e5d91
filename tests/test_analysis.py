"""Tests for the per-section analyses: they must reproduce the paper's
shapes on the synthetic datasets."""

import pytest

from repro.analysis import (analyze_caching_behavior, analyze_discovery,
                            analyze_hidden_resolvers, analyze_probing,
                            analyze_root_violations, build_table1,
                            cdf_points, crossover_prefix_length, fig1_series,
                            fig2_series, fig3_series, percentile,
                            run_flattening_case_study, run_table2,
                            summarize_allnames, summarize_cdn,
                            summarize_public_cdn, summarize_scan)
from repro.analysis.cache_sim import client_sweep
from repro.analysis.flattening import FlatteningLab
from repro.analysis.mapping_quality import (MappingQualityLab,
                                            measure_mapping_quality)
from repro.analysis.unroutable import UnroutableLab
from repro.core.classify import CachingCategory, ProbingCategory
from repro.datasets import AllNamesBuilder
from repro.datasets.columnar import ColumnarStore, write_columnar_stream
from repro.datasets.ditl import RootTraceBuilder
from repro.datasets.records import PublicCdnRecord
from repro.datasets.workload import column_records
from repro.engine import ShardSpec, client_sweep_sharded, fig1_sharded

from builder_reference import merged_records


class TestProbingAnalysis:
    def test_distribution_matches_truth(self, cdn_dataset):
        analysis = analyze_probing(cdn_dataset)
        assert analysis.accuracy is not None and analysis.accuracy >= 0.95
        counts = analysis.counts
        assert counts[ProbingCategory.ALWAYS_ECS] == max(counts.values())

    def test_report_text(self, cdn_dataset):
        text = analyze_probing(cdn_dataset).report()
        assert "always_ecs" in text and "paper" in text

    def test_root_violations(self):
        trace = RootTraceBuilder(resolver_count=200, violators=15,
                                 seed=3).build()
        analysis = analyze_root_violations(trace)
        assert analysis.violators_found == 15
        assert "15" in analysis.report()


class TestTable1:
    def test_both_columns_populated(self, cdn_dataset, scan_result):
        table = build_table1(cdn_dataset, scan_result)
        assert table.cdn_counts and table.scan_counts
        text = table.report()
        assert "jammed" in text

    def test_cdn_jammed_dominates(self, cdn_dataset):
        # The dominant AS behavior: /32 jammed is the largest class.
        table = build_table1(cdn_dataset=cdn_dataset)
        assert table.cdn_counts.get("32/jammed last byte", 0) >= \
            max(v for k, v in table.cdn_counts.items() if k != "32/jammed last byte")

    def test_scan_24_dominates(self, scan_result):
        # MegaDNS (Google-like) sends /24; it dominates the scan column.
        table = build_table1(scan_result=scan_result)
        assert table.scan_counts.get("24", 0) == max(table.scan_counts.values())

    def test_rows_include_paper_reference(self, cdn_dataset):
        rows = build_table1(cdn_dataset=cdn_dataset).rows()
        labels = [r[0] for r in rows]
        assert "32/jammed last byte" in labels
        row = next(r for r in rows if r[0] == "32/jammed last byte")
        assert row[4] == 3002  # paper CDN count


class TestCachingBehaviorAnalysis:
    @pytest.fixture(scope="class")
    def analysis(self, scan_universe):
        return analyze_caching_behavior(scan_universe)

    def test_all_major_categories_observed(self, analysis):
        counts = analysis.counts()
        for category in (CachingCategory.CORRECT,
                         CachingCategory.IGNORES_SCOPE,
                         CachingCategory.ACCEPTS_OVER_24,
                         CachingCategory.CLAMPS_AT_22,
                         CachingCategory.PRIVATE_PREFIX):
            assert counts.get(category, 0) >= 1, category

    def test_megadns_correct(self, analysis):
        assert analysis.megadns_report is not None
        assert analysis.megadns_report.category is CachingCategory.CORRECT

    def test_report_text(self, analysis):
        text = analysis.report()
        assert "ignores_scope" in text and "correct" in text

    def test_category_per_resolver_preset(self, analysis, scan_universe):
        """Each §6.3 verdict is the one its egress preset was built for."""
        expected = {
            CachingCategory.CORRECT: (
                "compliant", "always_ecs", "accepts_client_ecs",
                "jammed_last_byte", "prefix_25"),
            CachingCategory.IGNORES_SCOPE: (
                "scope_ignorer", "scope_ignorer_jammed"),
            CachingCategory.ACCEPTS_OVER_24: ("over_24_acceptor",),
            CachingCategory.CLAMPS_AT_22: ("clamp_22",),
            CachingCategory.PRIVATE_PREFIX: ("private_prefix_sender",),
            # ROADMAP item 7's open decision: leave these fixed-prefix
            # senders out of the §6.3 population, or give them a rule.
            # Whichever way it goes, this row is its diff.
            CachingCategory.UNCLASSIFIED: (
                "loopback_32_sender", "link_local_sender"),
        }
        category_of = {preset: category
                       for category, presets in expected.items()
                       for preset in presets}
        preset_of = {spec.ip: spec.policy_name
                     for spec in scan_universe.egress_specs}
        verdicts = {(preset_of[report.resolver_ip], report.category)
                    for report in analysis.reports}
        assert len(analysis.reports) == 49
        assert verdicts == set(category_of.items())


class TestDiscovery:
    def test_passive_sees_more(self, scan_universe, scan_result):
        analysis = analyze_discovery(scan_universe, scan_result, seed=0)
        assert len(analysis.passive_found) > 5 * len(analysis.active_found)

    def test_overlap_majority_of_active(self, scan_universe, scan_result):
        analysis = analyze_discovery(scan_universe, scan_result, seed=0)
        assert len(analysis.overlap) >= 0.7 * len(analysis.active_found)
        assert len(analysis.overlap) < len(analysis.active_found)


class TestCacheSimulations:
    def test_fig1_blowup_increases_with_ttl(self, public_cdn_store):
        series = fig1_series(public_cdn_store, ttls=(20, 60))
        assert max(series[60]) >= max(series[20])
        assert percentile(series[60], 0.5) >= percentile(series[20], 0.5)

    def test_fig1_median_blowup_substantial(self, public_cdn_store):
        series = fig1_series(public_cdn_store, ttls=(20,))
        # The paper's headline: half the resolvers blow up 4× or more.
        assert percentile(series[20], 0.5) > 2.0

    def test_blowup_at_least_one(self, public_cdn_store):
        series = fig1_series(public_cdn_store, ttls=(20,))
        assert all(b >= 1.0 for b in series[20])

    def test_fig1_resolver_without_rows_is_skipped(self, public_cdn_store):
        """An idle resolver is no data point — not a blow-up of 1.0."""
        resolvers = public_cdn_store.dictionary("resolver_ip")
        before = fig1_series(public_cdn_store, ttls=(20,))[20]
        assert len(before) == len(resolvers) and min(before) > 1.0
        resolvers.append("8.255.255.53")
        try:
            assert fig1_series(public_cdn_store, ttls=(20,))[20] == before
        finally:
            resolvers.pop()

    def test_fig1_row_order_across_resolvers_is_free(self):
        """One ts-ordered store (resolvers interleaved) == the sorted
        union over resolver-major shard stores == the sharded dispatch."""
        spec = ShardSpec.create("public-cdn", shard_count=3, scale=0.003,
                                seed=5, duration_s=600.0)
        builder = spec.make_builder()
        shards = [list(column_records(PublicCdnRecord,
                                      builder.iter_shard_columns(i, 3)))
                  for i in range(3)]
        ttls = (20, 60)
        whole = fig1_series(
            ColumnarStore.from_records(merged_records(spec), "public-cdn"),
            ttls)
        parts = [fig1_series(ColumnarStore.from_records(shard, "public-cdn"),
                             ttls) for shard in shards]
        assert whole == {ttl: sorted(b for part in parts for b in part[ttl])
                         for ttl in ttls}
        for workers in (1, 2):
            assert fig1_sharded(spec, ttls, workers=workers)[0] == whole

    def test_client_sweep_sharded_equals_in_process(self, tmp_path):
        builder = AllNamesBuilder(scale=0.02, seed=3)
        dataset = builder.build()
        path = tmp_path / "allnames.col"
        write_columnar_stream(dataset.records, path, "allnames")
        expected = client_sweep(
            ColumnarStore.from_records(dataset.records, "allnames"),
            dataset.client_ips, fractions=(0.3, 1.0), seeds=(1, 2))
        for workers in (1, 2):
            sweep, report = client_sweep_sharded(
                path, dataset.client_ips, fractions=(0.3, 1.0),
                seeds=(1, 2), workers=workers)
            assert sweep == expected
            assert len(report.shards) == 4
        assert report.shards[-1].records == len(dataset.records)

    def test_fig2_blowup_grows_with_clients(self, allnames_dataset,
                                            allnames_store):
        series = fig2_series(client_sweep(
            allnames_store, allnames_dataset.client_ips,
            fractions=(0.1, 0.5, 1.0), seeds=(1,)))
        values = [b for _, b in series]
        assert values[0] < values[-1]
        assert values[-1] > 1.5

    def test_fig3_ecs_halves_hit_rate(self, allnames_dataset,
                                      allnames_store):
        series = fig3_series(client_sweep(
            allnames_store, allnames_dataset.client_ips, fractions=(1.0,),
            seeds=(1,)))
        _, no_ecs, with_ecs = series[0]
        assert with_ecs < no_ecs / 2 + 0.05
        assert no_ecs > 0.5

    def test_fig3_no_ecs_grows_faster(self, allnames_dataset,
                                      allnames_store):
        series = fig3_series(client_sweep(
            allnames_store, allnames_dataset.client_ips,
            fractions=(0.1, 1.0), seeds=(1,)))
        growth_no_ecs = series[1][1] - series[0][1]
        growth_ecs = series[1][2] - series[0][2]
        assert growth_no_ecs > growth_ecs

    def test_replay_deterministic(self, allnames_dataset, allnames_store):
        clients = allnames_dataset.client_ips
        a, b = (client_sweep(allnames_store, clients, fractions=(0.5,),
                             seeds=(7,)) for _ in range(2))
        assert a == b

    def test_bad_fraction_rejected(self, allnames_dataset, allnames_store):
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\]"):
            client_sweep(allnames_store, allnames_dataset.client_ips,
                         fractions=(0.0,))

    def test_cdf_points(self):
        points = cdf_points([1.0, 2.0, 4.0])
        assert points[-1] == (4.0, 1.0)
        assert points[0][1] == pytest.approx(1 / 3)

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestHiddenResolvers:
    @pytest.fixture(scope="class")
    def analysis(self, scan_universe, scan_result):
        return analyze_hidden_resolvers(scan_universe, scan_result)

    def test_prefixes_discovered_and_validated(self, analysis):
        assert analysis.discovered_prefixes
        assert len(analysis.validated_prefixes) >= \
            0.8 * len(analysis.discovered_prefixes)

    def test_combinations_have_distances(self, analysis):
        assert analysis.combinations
        assert all(c.f_h_km >= 0 and c.f_r_km >= 0
                   for c in analysis.combinations)

    def test_below_diagonal_minority_exists(self, analysis):
        below_mp, _, above_mp = analysis.fractions(True)
        assert 0 < below_mp < 0.3

    def test_hidden_closer_majority_nonmp(self, analysis):
        below, on, above = analysis.fractions(False)
        assert above > 0.5

    def test_report(self, analysis):
        assert "hidden" in analysis.report()


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return run_table2(UnroutableLab.build())

    def test_routable_answers_identical_sets(self, table):
        assert table.routable_answers_identical

    def test_unroutable_answers_disjoint(self, table):
        assert table.unroutable_answers_disjoint

    def test_routable_mapping_is_near(self, table):
        assert table.row("none").rtt_ms < 40

    def test_unroutable_mapping_degrades(self, table):
        near = table.row("none").rtt_ms
        worst = max(table.row(p).rtt_ms for p in
                    ("127.0.0.1/32", "127.0.0.0/24", "169.254.252.0/24"))
        assert worst > 3 * near

    def test_rfc_fallback_policy_fixes_it(self):
        from repro.auth import UnroutablePolicy
        lab = UnroutableLab.build(
            unroutable_policy=UnroutablePolicy.USE_RESOLVER)
        table = run_table2(lab)
        for prefix in ("127.0.0.1/32", "127.0.0.0/24", "169.254.252.0/24"):
            assert table.row(prefix).location == table.row("none").location

    def test_report(self, table):
        assert "Zurich" in table.report() or "Table 2" in table.report()


class TestMappingQuality:
    @pytest.fixture(scope="class")
    def lab(self):
        return MappingQualityLab.build(probe_count=80, seed=3)

    @pytest.fixture(scope="class")
    def cdn1_series(self, lab):
        return measure_mapping_quality(lab, lab.cdn1, lab.cdn1_qname,
                                       prefix_lengths=(16, 20, 21, 22, 23, 24))

    @pytest.fixture(scope="class")
    def cdn2_series(self, lab):
        return measure_mapping_quality(lab, lab.cdn2, lab.cdn2_qname,
                                       prefix_lengths=(16, 20, 21, 22, 23, 24))

    def test_cdn1_cliff_below_24(self, cdn1_series):
        assert cdn1_series.median(23) > 3 * cdn1_series.median(24)
        assert crossover_prefix_length(cdn1_series) == 23

    def test_cdn2_cliff_below_21(self, cdn2_series):
        assert cdn2_series.median(21) < 3 * cdn2_series.median(24)
        assert cdn2_series.median(20) > 3 * cdn2_series.median(24)
        assert crossover_prefix_length(cdn2_series) == 20

    def test_cdn1_unique_answers_collapse(self, cdn1_series):
        assert cdn1_series.unique_answers[24] > 10
        assert cdn1_series.unique_answers[23] <= 2

    def test_cdn2_unique_answers_hold_to_21(self, cdn2_series):
        assert cdn2_series.unique_answers[21] > 10
        assert cdn2_series.unique_answers[20] <= 2

    def test_report(self, cdn1_series):
        assert "unique first answers" in cdn1_series.report("Fig 6")


class TestFlattening:
    def test_careless_flattening_penalty(self):
        lab = FlatteningLab.build(forward_ecs=False)
        timings = run_flattening_case_study(lab)
        # Mis-mapped edge is far; correct edge is near.
        assert timings.apex_handshake_ms > 5 * timings.www_handshake_ms
        assert timings.penalty_ms > 200

    def test_careful_flattening_fixes_mapping(self):
        lab = FlatteningLab.build(forward_ecs=True)
        timings = run_flattening_case_study(lab)
        assert timings.apex_handshake_ms <= 2 * timings.www_handshake_ms

    def test_www_path_maps_near_client(self):
        lab = FlatteningLab.build()
        timings = run_flattening_case_study(lab)
        where = lab.topology.city_of(timings.www_edge_ip)
        assert where and where.name == "Santiago"

    def test_report(self):
        lab = FlatteningLab.build()
        text = run_flattening_case_study(lab).report()
        assert "penalty" in text


class TestSummaries:
    def test_cdn_summary(self, cdn_dataset):
        assert "CDN dataset" in summarize_cdn(cdn_dataset)

    def test_scan_summary(self, scan_result):
        assert "Scan dataset" in summarize_scan(scan_result)

    def test_public_cdn_summary(self, public_cdn_dataset):
        assert "Public Resolver/CDN" in summarize_public_cdn(public_cdn_dataset)

    def test_allnames_summary(self, allnames_dataset):
        assert "All-Names" in summarize_allnames(allnames_dataset)
