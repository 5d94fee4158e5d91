#!/usr/bin/env python3
"""Classify a resolver population from an authoritative server's logs.

Run:  python examples/resolver_census.py

Generates a CDN-vantage query log (section 4's CDN dataset at small scale)
and recovers, per resolver, its probing strategy (section 6.1) and source
prefix length profile (Table 1) — then checks the verdicts against the
generator's ground truth, the kind of validation a real measurement study
cannot do.
"""

from collections import Counter

from repro.analysis import analyze_probing, build_table1
from repro.datasets import CdnDatasetBuilder
from repro.datasets.ditl import RootTraceBuilder
from repro.analysis import analyze_root_violations


def main() -> None:
    print("generating the CDN-vantage dataset (one simulated day, "
          "scaled population)...")
    dataset = CdnDatasetBuilder(scale=0.015, seed=3,
                                duration_s=6 * 3600).build()
    print(f"  {len(dataset.records)} queries from "
          f"{len(dataset.resolvers)} ECS-enabled resolvers")

    print("\nsection 6.1 — probing strategies:")
    analysis = analyze_probing(dataset)
    print(analysis.report())

    truth = Counter(spec.probing for spec in dataset.resolvers)
    print("\nground truth (generator):",
          {k: v for k, v in sorted(truth.items())})
    print(f"classifier accuracy: {analysis.accuracy:.1%}")

    print("\nTable 1 — source prefix lengths (CDN column):")
    print(build_table1(cdn_dataset=dataset).report())

    print("\nsection 6.1 — the DITL check (ECS sent to root servers):")
    trace = RootTraceBuilder(resolver_count=300, violators=15, seed=3).build()
    print(analyze_root_violations(trace).report())


if __name__ == "__main__":
    main()
