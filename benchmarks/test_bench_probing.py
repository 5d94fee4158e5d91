"""Section 6.1 — ECS probing strategies.

Paper: of 4 147 ECS-enabled non-whitelisted resolvers, 3 382 send ECS on
100% of A/AAAA queries, 258 probe designated hostnames with caching
disabled, 32 send loopback probes at 30-minute multiples, 88 probe on cache
misses, and 387 show no discernible pattern; 15 resolvers send ECS to the
root servers.  The shape: the same five classes, in the same order, and a
classifier that recovers the generator's ground truth.
"""

from repro.analysis import analyze_probing, analyze_root_violations
from repro.core.classify import ProbingCategory
from repro.datasets.ditl import RootTraceBuilder


def test_bench_probing_classification(cdn_dataset, benchmark, save_report):
    analysis = benchmark.pedantic(lambda: analyze_probing(cdn_dataset),
                                  rounds=1, iterations=1)
    save_report("section6_1_probing", analysis.report())

    counts = analysis.counts
    assert analysis.accuracy >= 0.95
    # Order of class sizes matches the paper:
    assert counts[ProbingCategory.ALWAYS_ECS] \
        > counts[ProbingCategory.MIXED] \
        > counts[ProbingCategory.HOSTNAME_PROBES] \
        > counts[ProbingCategory.HOSTNAMES_ON_MISS] \
        >= counts[ProbingCategory.INTERVAL_LOOPBACK]
    # ALWAYS dominates with roughly the paper's share (3382/4147 ≈ 82%).
    always_share = counts[ProbingCategory.ALWAYS_ECS] / analysis.total_resolvers
    assert 0.6 < always_share < 0.95


def test_bench_root_ecs_violations(benchmark, save_report):
    trace = RootTraceBuilder(resolver_count=400, violators=15, seed=42).build()
    analysis = benchmark.pedantic(lambda: analyze_root_violations(trace),
                                  rounds=1, iterations=1)
    save_report("section6_1_root_violations", analysis.report())
    assert analysis.violators_found == 15
