"""Figure 1 — CDF of the cache blow-up factor (Public Resolver/CDN replay).

Paper: with the CDN's 20-second TTL, half the egress resolvers need over
4× the cache with ECS (max 15.95); replaying with 40- and 60-second TTLs
pushes the maximum to 23.68 and 29.85.  The shape: a wide CDF with median
well above 2 at TTL 20, and both median and maximum growing with TTL.
"""

from repro.analysis import cdf_table, fig1_series, percentile
from repro.datasets import paper_numbers as paper


def test_bench_fig1_blowup_cdf(public_cdn_store, benchmark, save_report):
    series = benchmark.pedantic(
        lambda: fig1_series(public_cdn_store, ttls=(20, 40, 60)),
        rounds=1, iterations=1)

    labeled = {f"TTL {ttl}s": values for ttl, values in series.items()}
    text = cdf_table(labeled, title="Figure 1 — cache blow-up factor CDF")
    paper_line = ("paper: median≈4 and max {:.2f} @TTL20; max {:.2f} @TTL40;"
                  " max {:.2f} @TTL60").format(
        paper.FIG1_MAX_BLOWUP[20], paper.FIG1_MAX_BLOWUP[40],
        paper.FIG1_MAX_BLOWUP[60])
    save_report("fig1_blowup_cdf", f"{text}\n{paper_line}")

    median_20 = percentile(series[20], 0.5)
    assert 2.0 < median_20 < 8.0, "TTL-20 median in the paper's regime"
    assert max(series[20]) > 2 * median_20, "heavy upper tail"
    # Monotone growth with TTL, the paper's second finding.
    assert percentile(series[40], 0.5) > median_20
    assert percentile(series[60], 0.5) > percentile(series[40], 0.5)
    assert max(series[60]) > max(series[40]) > max(series[20])
    # Every resolver needs at least as much cache with ECS as without.
    assert all(v >= 1.0 for v in series[20])
