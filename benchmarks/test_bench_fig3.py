"""Figure 3 — cache hit rate with and without ECS (All-Names replay).

Paper: for the full client population the hit rate drops from ≈76% without
ECS to ≈30% with it — less than half — and the with-ECS curve grows far
more slowly with client population than the without-ECS curve.
"""

from repro.analysis import client_sweep, fig3_series, format_table
from repro.datasets import paper_numbers as paper
from repro.engine.seeding import world_seed

FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: Three client samples per fraction, drawn from the dataset's seed (42).
SEEDS = [world_seed(42, f"analysis.client_sweep.run{run}")
         for run in (1, 2, 3)]


def test_bench_fig3_hit_rate(allnames_dataset, allnames_store, benchmark,
                             save_report):
    series = benchmark.pedantic(
        lambda: fig3_series(client_sweep(
            allnames_store, allnames_dataset.client_ips,
            fractions=FRACTIONS, seeds=SEEDS)),
        rounds=1, iterations=1)

    rows = [(f"{frac:.0%}", f"{no_ecs:.1%}", f"{with_ecs:.1%}")
            for frac, no_ecs, with_ecs in series]
    text = format_table(("clients", "hit rate (no ECS)", "hit rate (ECS)"),
                        rows, title="Figure 3 — cache hit rate")
    save_report("fig3_hit_rate",
                text + f"\npaper @100%: {paper.FIG3_HIT_RATE_NO_ECS:.0%} "
                       f"without ECS vs {paper.FIG3_HIT_RATE_WITH_ECS:.0%} with")

    _, no_ecs_full, with_ecs_full = series[-1]
    # The headline: ECS cuts the hit rate to less than half.
    assert with_ecs_full < no_ecs_full / 2 + 0.03
    assert 0.6 < no_ecs_full < 0.9, "no-ECS hit rate in the paper's regime"
    assert 0.15 < with_ecs_full < 0.45, "ECS hit rate in the paper's regime"
    # Growth with client population: fast without ECS, slow with.
    growth_no_ecs = series[-1][1] - series[0][1]
    growth_ecs = series[-1][2] - series[0][2]
    assert growth_no_ecs > growth_ecs > -0.05
