"""Figure 2 — cache blow-up vs client-population fraction (All-Names).

Paper: the blow-up grows from ≈1.9 at 10% of clients to 4.3 at 100%, with
no flattening at the right edge — busier resolvers blow up more.  The
shape: a monotonically increasing, still-rising curve.
"""

from repro.analysis import client_sweep, fig2_series, format_table
from repro.datasets import paper_numbers as paper
from repro.engine.seeding import world_seed

FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: Three client samples per fraction, drawn from the dataset's seed (42).
SEEDS = [world_seed(42, f"analysis.client_sweep.run{run}")
         for run in (1, 2, 3)]


def test_bench_fig2_blowup_vs_clients(allnames_dataset, allnames_store,
                                      benchmark, save_report):
    series = benchmark.pedantic(
        lambda: fig2_series(client_sweep(
            allnames_store, allnames_dataset.client_ips,
            fractions=FRACTIONS, seeds=SEEDS)),
        rounds=1, iterations=1)

    rows = [(f"{frac:.0%}", round(blowup, 2)) for frac, blowup in series]
    text = format_table(("clients", "blow-up factor"), rows,
                        title="Figure 2 — blow-up vs client fraction")
    save_report("fig2_blowup_vs_clients",
                text + f"\npaper: ≈1.9 → {paper.FIG2_FULL_POPULATION_BLOWUP}"
                       " (rising, not flattening)")

    values = [blowup for _, blowup in series]
    assert values[0] < values[-1], "blow-up grows with client population"
    assert values[-1] > 2.5, "full-population blow-up is substantial"
    assert 1.2 < values[0] < 3.0, "small-population blow-up near paper's 1.9"
    # Mostly monotone (small sampling noise tolerated).
    violations = sum(1 for a, b in zip(values, values[1:]) if b < a - 0.15)
    assert violations <= 1
    # Still rising at the right edge (the paper's "does not flatten").
    assert values[-1] > values[-3]
