#!/usr/bin/env python3
"""A tour of section 8's ECS pitfalls, each demonstrated live.

Run:  python examples/ecs_pitfalls_tour.py

 1. Unroutable ECS prefixes (Table 2): loopback/link-local client subnets
    sent to a literal-lookup CDN map across the globe;
 2. Source prefix length thresholds (Figs 6/7): CDN-1 needs /24, CDN-2
    needs /21 — shorter prefixes silently disable ECS;
 3. CNAME flattening (Fig 8): a careless DNS provider maps the zone apex
    near itself instead of near the client.
"""

from repro.analysis import run_flattening_case_study, run_table2
from repro.analysis.flattening import FlatteningLab
from repro.analysis.mapping_quality import (MappingQualityLab,
                                            crossover_prefix_length,
                                            measure_mapping_quality)
from repro.analysis.unroutable import UnroutableLab
from repro.engine.seeding import world_seed


def pitfall_unroutable() -> None:
    print("=== Pitfall 1: unroutable ECS prefixes (section 8.1) ===")
    lab = UnroutableLab.build()
    table = run_table2(lab)
    print(table.report())
    near = table.row("none").rtt_ms
    worst = max(table.rows, key=lambda r: r.rtt_ms or 0)
    print(f"-> routable mapping: {near:.0f} ms; worst unroutable mapping: "
          f"{worst.rtt_ms:.0f} ms to {worst.location}\n")


def pitfall_prefix_length() -> None:
    print("=== Pitfall 2: improper source prefix lengths (section 8.3) ===")
    lab = MappingQualityLab.build(probe_count=120, seed=5)
    for cdn, qname, label, fig in (
            (lab.cdn1, lab.cdn1_qname, "CDN-1", "fig6"),
            (lab.cdn2, lab.cdn2_qname, "CDN-2", "fig7")):
        series = measure_mapping_quality(
            lab, cdn, qname, prefix_lengths=(16, 20, 21, 23, 24),
            seed=world_seed(5, f"analysis.mapping_quality.{fig}"))
        cliff = crossover_prefix_length(series)
        print(f"{label}: median connect /24 = {series.median(24):.0f} ms, "
              f"/16 = {series.median(16):.0f} ms; quality collapses at "
              f"/{cliff}")
    print("-> sending /24 everywhere is the only safe policy; per-CDN "
          "thresholds differ and are invisible to resolvers\n")


def pitfall_flattening() -> None:
    print("=== Pitfall 3: CNAME flattening (section 8.4) ===")
    careless = run_flattening_case_study(FlatteningLab.build(forward_ecs=False))
    print(careless.report("careless provider (no backend ECS)"))
    careful = run_flattening_case_study(FlatteningLab.build(forward_ecs=True))
    print(f"\nwith backend ECS forwarding the apex handshake drops from "
          f"{careless.apex_handshake_ms:.0f} ms to "
          f"{careful.apex_handshake_ms:.0f} ms")


def main() -> None:
    pitfall_unroutable()
    pitfall_prefix_length()
    pitfall_flattening()


if __name__ == "__main__":
    main()
