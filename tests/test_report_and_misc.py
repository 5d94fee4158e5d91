"""Tests for report rendering, dataset helpers, and cross-cutting
consistency checks."""

from repro.analysis.report import (Comparison, cdf_table,
                                   format_comparisons, format_table)
from repro.datasets import paper_numbers as paper
from repro.datasets.cdn_dataset import _jammed, _profile_lengths


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)])
        lines = text.splitlines()
        assert len({line.index("bbbb") if "bbbb" in line else
                    lines[0].index("bbbb") for line in lines[:1]}) == 1
        assert all(len(line) >= 6 for line in lines)

    def test_title_underlined(self):
        text = format_table(("a",), [("x",)], title="My Title")
        lines = text.splitlines()
        assert lines[0] == "My Title"
        assert lines[1] == "=" * len("My Title")

    def test_none_rendered_as_dash(self):
        text = format_table(("a", "b"), [("x", None)])
        assert "-" in text.splitlines()[-1]

    def test_floats_two_decimals(self):
        text = format_table(("v",), [(3.14159,)])
        assert "3.14" in text and "3.142" not in text

    def test_comparisons(self):
        text = format_comparisons(
            [Comparison("metric", 10, 9, note="close")], "T")
        assert "metric" in text and "close" in text

    def test_cdf_table_quantiles(self):
        text = cdf_table({"s": [1.0, 2.0, 3.0, 4.0]}, quantiles=(0.5, 1.0))
        assert "p50" in text and "p100" in text
        assert "4.00" in text

    def test_cdf_table_empty_series(self):
        text = cdf_table({"empty": []}, quantiles=(0.5,))
        assert "-" in text


class TestCdnDatasetHelpers:
    def test_profile_lengths_simple(self):
        assert _profile_lengths("24") == [24]

    def test_profile_lengths_combo(self):
        assert _profile_lengths("24,25,32/jammed last byte") == [24, 25, 32]

    def test_profile_lengths_v6(self):
        assert _profile_lengths("56 (IPv6)") == [56]

    def test_jammed_detection(self):
        assert _jammed("32/jammed last byte")
        assert not _jammed("24")


class TestPaperNumbersConsistency:
    """The constants module is the contract between generators and
    benches; keep it internally consistent."""

    def test_probing_counts_sum_to_population(self):
        total = (paper.PROBING_ALWAYS + paper.PROBING_HOSTNAME_PROBES
                 + paper.PROBING_INTERVAL_LOOPBACK + paper.PROBING_ON_MISS
                 + paper.PROBING_MIXED)
        assert total == paper.CDN_NON_WHITELISTED

    def test_caching_counts_sum(self):
        assert (paper.CACHING_CORRECT + paper.CACHING_IGNORES_SCOPE
                + paper.CACHING_OVER_24 + paper.CACHING_CLAMP_22
                + paper.CACHING_PRIVATE_PREFIX) == paper.CACHING_STUDIED

    def test_discovery_consistency(self):
        assert paper.DISCOVERY_OVERLAP < paper.DISCOVERY_SCAN_NON_GOOGLE
        assert paper.DISCOVERY_SCAN_NON_GOOGLE \
            < paper.DISCOVERY_CDN_NON_WHITELISTED

    def test_scan_egress_split(self):
        assert paper.SCAN_GOOGLE_EGRESS + paper.SCAN_NON_GOOGLE_EGRESS \
            == paper.SCAN_EGRESS_IPS

    def test_whitelist_split(self):
        assert paper.CDN_WHITELISTED + paper.CDN_NON_WHITELISTED \
            == paper.CDN_ECS_ENABLED_RESOLVERS

    def test_hidden_validation_totals(self):
        assert paper.HIDDEN_VALIDATED_MP + paper.HIDDEN_VALIDATED_OTHER \
            == paper.HIDDEN_VALIDATED_TOTAL
        assert paper.HIDDEN_VALIDATED_TOTAL < paper.HIDDEN_PREFIXES

    def test_fig1_monotone_in_ttl(self):
        values = [paper.FIG1_MAX_BLOWUP[t] for t in (20, 40, 60)]
        assert values == sorted(values)

    def test_table1_rows_nonnegative(self):
        for label, (scan, cdn) in paper.TABLE1_ROWS.items():
            assert scan >= 0 and cdn >= 0, label

    def test_table2_rows_complete(self):
        assert set(paper.TABLE2_ROWS) == {
            "none", "/24 of src addr", "127.0.0.1/32", "127.0.0.0/24",
            "169.254.252.0/24"}


class TestVersionAndExports:
    def test_version_string(self):
        import repro
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_all_exports(self):
        import repro.analysis as analysis
        import repro.dnslib as dnslib
        import repro.net as net
        for module in (analysis, dnslib, net):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, \
                    f"{module.__name__}.{name}"
