"""Figure 7 — mapping quality vs ECS source prefix length, CDN-2.

Paper: CDN-2 leverages ECS down to /21 (41–42 distinct edges, good
latency); at /20 and below it returns a single resolver-mapped answer with
scope 0 and mapping quality collapses.
"""

from repro.analysis import crossover_prefix_length, measure_mapping_quality
from repro.analysis.mapping_quality import MappingQualityLab
from repro.engine.seeding import world_seed

PREFIX_LENGTHS = tuple(range(16, 25))


def test_bench_fig7_cdn2(benchmark, save_report):
    lab = MappingQualityLab.build(probe_count=200, seed=42)
    series = benchmark.pedantic(
        lambda: measure_mapping_quality(lab, lab.cdn2, lab.cdn2_qname,
                                        prefix_lengths=PREFIX_LENGTHS,
                                        seed=world_seed(
                                            42, "analysis.mapping_quality.fig7")),
        rounds=1, iterations=1)
    save_report("fig7_cdn2_prefix_quality",
                series.report("Figure 7 — CDN-2 time-to-connect by prefix "
                              "length") +
                "\npaper: /21..24 equivalent; cliff between /21 and /20; "
                "scope 0 below")

    # /21 through /24 give equivalent quality.
    assert series.median(21) < 2 * series.median(24)
    assert series.median(22) < 2 * series.median(24)
    # The cliff is between /21 and /20.
    assert series.median(20) > 3 * series.median(24)
    assert crossover_prefix_length(series) == 20
    # Distinct answers hold to /21 then collapse to ~1.
    assert series.unique_answers[21] > 10
    assert series.unique_answers[20] <= 3
    # Below the threshold CDN-2 answers with scope 0 (the paper's marker).
    assert series.scopes[20] and all(s == 0 for s in series.scopes[20])
    assert series.scopes[21] and all(s > 0 for s in series.scopes[21])
