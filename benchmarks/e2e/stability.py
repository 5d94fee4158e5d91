#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against bounds.

``python3 benchmarks/e2e/stability.py [--repeat N] [--seed S]
[--vary-seed] [--workload NAME] [--out FILE]`` runs the untraced pass of
every workload N times (each in a fresh child), and prints per
metric x workload the median, the quartiles, their distance as a share
of the median (the spread the benchmark's driver computes) and the
largest relative deviation of any run from the median.  ``--vary-seed``
gives run *i* the seed ``S + i``, as the driver does.

Exits non-zero when a spread exceeds the metric's bound in
``BENCHMARK.json`` (``setup_s`` is exempt from the spread rule, as it is
in the driver), or when any op failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional

import run as harness


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median,
            "max_deviation": max(abs(v - median) for v in values) / median,
            "runs": len(values)}


def main(argv: Optional[List[str]] = None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat must be at least 2")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: Dict[str, Any] = {
        "host": harness.host_tag(), "seed": args.seed,
        "vary_seed": args.vary_seed, "seconds": args.seconds,
        "repeat": args.repeat, "workloads": {}}
    ok = True
    for name in names:
        samples: Dict[str, List[float]] = {metric: [] for metric in bounds}
        for index in range(args.repeat):
            seed = args.seed + index if args.vary_seed else args.seed
            result, _ = harness.run_child(name, seed, args.seconds, 1.0, 0)
            ok = ok and result["correct"]
            for metric in bounds:
                samples[metric].append(result["metrics"][metric]["value"])
        record["workloads"][name] = {}
        for metric, values in samples.items():
            stats = summarize(values)
            stats["values"] = values
            record["workloads"][name][metric] = stats
            over = metric != "setup_s" \
                and stats["iqr_share"] > bounds[metric]
            ok = ok and not over
            print(f"{name:16s} {metric:18s} median {stats['median']:12.4f} "
                  f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} "
                  f"iqr/median {stats['iqr_share']:7.4f} "
                  f"max dev {stats['max_deviation']:7.4f} "
                  f"bound {bounds[metric]:.2f}"
                  + ("  OVER BOUND" if over else ""), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
