"""Figure 6 — mapping quality vs ECS source prefix length, CDN-1.

Paper: with /24 prefixes, CDN-1's authoritative returns 400 distinct edges
and good latency; at /23 and below the distinct answers collapse to 5–14
and the time-to-connect CDF degrades enormously — CDN-1 does not use ECS
below /24 at all.
"""

from repro.analysis import crossover_prefix_length, measure_mapping_quality
from repro.analysis.mapping_quality import MappingQualityLab
from repro.engine.seeding import world_seed

PREFIX_LENGTHS = tuple(range(16, 25))


def test_bench_fig6_cdn1(benchmark, save_report):
    lab = MappingQualityLab.build(probe_count=200, seed=42)
    series = benchmark.pedantic(
        lambda: measure_mapping_quality(lab, lab.cdn1, lab.cdn1_qname,
                                        prefix_lengths=PREFIX_LENGTHS,
                                        seed=world_seed(
                                            42, "analysis.mapping_quality.fig6")),
        rounds=1, iterations=1)
    save_report("fig6_cdn1_prefix_quality",
                series.report("Figure 6 — CDN-1 time-to-connect by prefix "
                              "length") +
                "\npaper: cliff between /24 and /23; 400 vs 5-14 edges")

    # The cliff sits exactly between 24 and 23.
    assert series.median(23) > 3 * series.median(24)
    assert crossover_prefix_length(series) == 23
    # Below the cliff nothing changes further (flat bad region).
    assert series.median(16) < 2 * series.median(23)
    # Distinct answers collapse.
    assert series.unique_answers[24] > 10
    assert all(series.unique_answers[L] <= 3 for L in range(16, 24))
