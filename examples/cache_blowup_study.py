#!/usr/bin/env python3
"""Reproduce the section 7 caching study: blow-up factors and hit rates.

Run:  python examples/cache_blowup_study.py [--fast]

Generates the Public Resolver/CDN and All-Names traces, replays them
through the scope-keyed cache simulator with and without ECS, and prints
the Figure 1/2/3 series next to the paper's reported values.
"""

import sys

from repro.analysis import (cdf_table, client_sweep, fig1_series, fig2_series,
                            fig3_series, format_table, percentile)
from repro.datasets import AllNamesBuilder, PublicCdnBuilder
from repro.datasets import paper_numbers as paper
from repro.datasets.columnar import ColumnarStore
from repro.engine.seeding import world_seed


def main() -> None:
    fast = "--fast" in sys.argv
    scale = 0.004 if fast else 0.01
    an_scale = 0.3 if fast else 1.0

    print("generating the Public Resolver/CDN trace...")
    public_cdn = PublicCdnBuilder(scale=scale, seed=1,
                                  duration_s=900 if fast else 1800).build()
    print(f"  {len(public_cdn.records)} ECS queries from "
          f"{len(public_cdn.resolver_ips)} egress resolver IPs")

    print("\nFigure 1 — cache blow-up CDF (TTL 20/40/60 s):")
    series = fig1_series(
        ColumnarStore.from_records(public_cdn.records, "public-cdn"),
        ttls=(20, 40, 60))
    print(cdf_table({f"TTL {t}s": v for t, v in series.items()}))
    print(f"paper: median ≈ 4, max {paper.FIG1_MAX_BLOWUP[20]} @TTL20, "
          f"{paper.FIG1_MAX_BLOWUP[40]} @TTL40, "
          f"{paper.FIG1_MAX_BLOWUP[60]} @TTL60")
    print(f"measured medians: " + ", ".join(
        f"{t}s={percentile(v, 0.5):.2f}" for t, v in series.items()))

    print("\ngenerating the All-Names trace...")
    allnames = AllNamesBuilder(scale=an_scale, seed=1).build()
    print(f"  {len(allnames.records)} queries from "
          f"{len(allnames.client_ips)} clients")

    # One sweep of (fraction, seed) replays; both figures project it.
    sweep = client_sweep(
        ColumnarStore.from_records(allnames.records, "allnames"),
        allnames.client_ips, fractions=(0.1, 0.25, 0.5, 0.75, 1.0),
        seeds=[world_seed(1, f"analysis.client_sweep.run{run}")
               for run in (1, 2, 3)])
    print("\nFigure 2 — blow-up vs client fraction:")
    f2 = fig2_series(sweep)
    print(format_table(("clients", "blow-up"),
                       [(f"{f:.0%}", round(b, 2)) for f, b in f2]))
    print(f"paper: ≈1.9 at 10% rising to {paper.FIG2_FULL_POPULATION_BLOWUP}"
          " at 100%")

    print("\nFigure 3 — hit rate with/without ECS:")
    f3 = fig3_series(sweep)
    print(format_table(("clients", "no ECS", "with ECS"),
                       [(f"{f:.0%}", f"{a:.1%}", f"{b:.1%}")
                        for f, a, b in f3]))
    print(f"paper @100%: {paper.FIG3_HIT_RATE_NO_ECS:.0%} without vs "
          f"{paper.FIG3_HIT_RATE_WITH_ECS:.0%} with ECS")


if __name__ == "__main__":
    main()
