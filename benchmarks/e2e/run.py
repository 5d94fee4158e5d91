#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

Two ways to run it (see README.md next to this file):

``python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--no-trace]
[--out FILE]`` runs every workload (or one) in its own fresh child
process, first with tracing off for the end-to-end metrics, then once
traced for the per-layer metrics, and prints every metric by name with
its unit.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is one such child: it measures one workload in this
process and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under ``src/`` receives only inputs generated from
``--seed``; nothing else changes the load.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Scratch space for traces; inside the checkout, named by a fixed-width
#: pid so paths (which travel in the engine's pool header) have the same
#: length in every run.
SCRATCH = ".bench_e2e_tmp"

#: A run times at least this many units, and sets up at least this many
#: times, whatever ``--seconds`` says; medians need a few samples.
MIN_UNITS = 3
SETUP_REPEATS = 3

#: Untraced units before a traced pass: one to warm the program's
#: caches, then two whose median is the baseline of
#: ``trace.overhead_ratio``.
UNTRACED_UNITS = 3


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_tag() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# One workload in this process


@dataclass
class Unit:
    """Timings of one unit: raw sums and host-adjusted sums over slices."""

    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    outputs: List[Any] = field(default_factory=list)
    #: Traced units only: per span name, calls and adjusted self ns.
    calls: Dict[str, int] = field(default_factory=dict)
    self_ns: Dict[str, float] = field(default_factory=dict)
    root_ns: int = 0


def run_unit(workload: Any, fixture: Any, probe: Any = None) -> Unit:
    """Run one unit slice by slice, a speed reference around each."""
    unit = Unit()
    slices = workload.run(fixture)
    ref = hostclock.sample()
    tracer = probe.tracer if probe is not None else None
    done = object()
    while True:
        if tracer is not None:
            tracer.active = True
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        output = next(slices, done)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.active = False
        if output is done:
            break
        unit.outputs.append(output)
        ref_after = hostclock.sample(hostclock.REF_SHARE * wall)
        adjust = hostclock.factor(ref, ref_after)
        ref = ref_after
        unit.raw_wall_s += wall
        unit.raw_cpu_s += cpu
        unit.wall_s += wall * adjust
        unit.cpu_s += cpu * adjust
        if tracer is not None:
            totals, root_ns = tracer.take()
            unit.root_ns += root_ns
            for name, (calls, self_ns) in totals.items():
                unit.calls[name] = unit.calls.get(name, 0) + calls
                unit.self_ns[name] = unit.self_ns.get(name, 0.0) \
                    + self_ns * adjust
    return unit


class Run:
    """State of one single-workload run: fixtures, units, outcomes."""

    def __init__(self, workload: Any, seconds: float,
                 setup_repeats: int = SETUP_REPEATS) -> None:
        self.workload = workload
        self.seconds = seconds
        #: Set-ups to time even when the fixture could be reused.
        self.setup_repeats = setup_repeats
        self.fixture: Any = None
        self.setups: List[float] = []
        self.units: List[Unit] = []
        self.outcomes: List[Any] = []
        self.peak_rss_kib = 0
        #: Traced runs: the probe's counts after the first unit, the
        #: only one that reads a trace cold.
        self.first_unit_counts: Dict[str, int] = {}

    def set_up(self) -> None:
        """Build a fresh fixture; its adjusted time is one setup sample."""
        if self.fixture is not None:
            self.workload.discard(self.fixture)
            self.fixture = None
        ref = hostclock.sample()
        start = time.perf_counter()
        self.fixture = self.workload.setup()
        wall = time.perf_counter() - start
        ref_after = hostclock.sample(hostclock.REF_SHARE * wall)
        self.setups.append(wall * hostclock.factor(ref, ref_after))

    def ensure_fixture(self) -> None:
        if self.fixture is None or not self.workload.reusable \
                or len(self.setups) < self.setup_repeats:
            self.set_up()

    def measure(self, probe: Any = None, min_units: int = MIN_UNITS,
                deep: bool = True) -> None:
        """Timed units until ``seconds`` of raw slice time are done.

        ``deep`` asks for the expensive cross-checks on the last unit.
        """
        timed = 0.0
        while True:
            self.ensure_fixture()
            unit = run_unit(self.workload, self.fixture, probe)
            timed += unit.raw_wall_s
            last = timed >= self.seconds \
                and len(self.units) + 1 >= min_units
            if last:
                # Before the deep check, whose oracle replays would
                # otherwise be the peak.
                self.peak_rss_kib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            self.outcomes.append(self.workload.check(
                self.fixture, unit.outputs, deep=deep and last))
            unit.outputs = []
            self.units.append(unit)
            if probe is not None and len(self.units) == 1:
                self.first_unit_counts = dict(probe.counts)
                probe.tracer.logging = False
            if last:
                return

    def close(self) -> None:
        if self.fixture is not None:
            self.workload.discard(self.fixture)
            self.fixture = None


def end_to_end(run: Run, import_s: float) -> Dict[str, float]:
    units = list(zip(run.units, run.outcomes))
    return {
        "throughput_ops_s": statistics.median(
            o.ops / u.wall_s for u, o in units),
        "cpu_us_per_op": statistics.median(
            u.cpu_s / o.ops * 1e6 for u, o in units),
        "peak_rss_mb": run.peak_rss_kib / 1024.0,
        "setup_s": import_s + statistics.median(run.setups),
    }


def summed(tallies: Any) -> Dict[str, Any]:
    """Key-wise sum of a sequence of ``{name: number}`` dicts."""
    total: Dict[str, Any] = {}
    for tally in tallies:
        for name, value in tally.items():
            total[name] = total.get(name, 0) + value
    return total


def per_layer(run: Run, probe: Any, untraced_unit_s: float,
              spec: Dict[str, Any]) -> Dict[str, float]:
    ops = sum(o.ops for o in run.outcomes)
    calls = summed(u.calls for u in run.units)
    self_ns = summed(u.self_ns for u in run.units)
    counts = probe.counts
    values: Dict[str, float] = {}
    for name in {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                 if m["name"].endswith((".calls_per_op",
                                        ".self_us_per_op"))}:
        values[name + ".calls_per_op"] = calls.get(name, 0) / ops
        values[name + ".self_us_per_op"] = \
            self_ns.get(name, 0.0) / 1000.0 / ops
    lookups = calls.get("core.cache.lookup", 0)
    values.update({
        "dnslib.wire_bytes_per_op": counts["wire_bytes"] / ops,
        "net.timeouts_per_op": counts["net.timeouts"] / ops,
        "core.cache.hit_ratio":
            counts["cache.hits"] / lookups if lookups else 0.0,
        "faults.injected_per_op": counts["faults.injected"] / ops,
        "faults.retry.attempts_per_op": counts["retry.attempts"] / ops,
        "faults.unanswered_share": 0.0,
        "datasets.columnar.write.bytes_per_op": 0.0,
        # The two plain counts are those of the first unit, so they do
        # not depend on how many units fit into --seconds; later units
        # over the same trace find it in the replay cache and read no
        # group.
        "datasets.columnar.read.groups":
            float(run.first_unit_counts.get("read.groups", 0)),
        "analysis.replay.rows":
            float(run.first_unit_counts.get("replay.rows", 0)),
        "engine.payload_bytes_per_shard": 0.0,
        "engine.header_bytes": 0.0,
        "trace.attributed_share":
            sum(u.root_ns for u in run.units) / 1e9
            / sum(u.raw_wall_s for u in run.units),
        "trace.overhead_ratio": statistics.median(
            u.wall_s for u in run.units) / untraced_unit_s,
    })
    values.update(run.outcomes[-1].extras)
    return values


def traced_pass(run: Run, spec: Dict[str, Any],
                spans_path: Optional[str]) -> Optional[Dict[str, float]]:
    """Untraced baseline units, then the traced units and the tracer's
    self-check; ``None`` when the self-check found a mismatch."""
    import layers

    warm = Run(run.workload, 0.0, setup_repeats=1)
    warm.measure(min_units=UNTRACED_UNITS, deep=False)
    warm.close()
    untraced_unit_s = statistics.median(u.wall_s for u in warm.units[1:])
    probe = layers.install(run.workload.op_entry)
    run.measure(probe, min_units=2)
    metrics = per_layer(run, probe, untraced_unit_s, spec)
    metrics.update(run.workload.untimed_layer_metrics(run.fixture))
    mismatches = probe.check(summed(u.calls for u in run.units),
                             summed(o.expected for o in run.outcomes))
    for line in mismatches:
        print(f"tracer self-check failed: {line}", file=sys.stderr)
    if mismatches:
        return None
    if spans_path:
        probe.tracer.write_spans(spans_path, run.workload.name)
    return metrics


def spans_stem(out_path: str) -> str:
    """``x.json`` -> ``x``: spans go to the sibling ``x.spans.jsonl``."""
    return out_path[:-5] if out_path.endswith(".json") else out_path


def single(args: argparse.Namespace) -> int:
    """Measure one workload in this process (the driver's entry)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same hash seed every run: dict and set layouts, hence timings
        # and any order-dependent count, repeat.  exec keeps one process.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    out_path = os.path.abspath(args.out) if args.out else None
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()

    ref = hostclock.sample(0.01)
    start = time.perf_counter()
    import workloads
    wall = time.perf_counter() - start
    import_s = wall * hostclock.factor(ref, hostclock.sample(0.01))

    workdir = os.path.join(SCRATCH, f"{os.getpid():08d}")
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale,
                                                  workdir)
    run = Run(workload, args.seconds,
              setup_repeats=1 if args.trace else SETUP_REPEATS)
    try:
        if args.trace:
            metrics = traced_pass(
                run, spec, spans_stem(out_path) + ".spans.jsonl"
                if out_path else None)
            if metrics is None:
                return 2
        else:
            run.measure()
            metrics = end_to_end(run, import_s)
        run.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch is still there

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics declared but not measured: {missing}",
              file=sys.stderr)
        return 2
    attempted = sum(o.ops for o in run.outcomes)
    failed = sum(o.failed for o in run.outcomes)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    problems = sorted({p for o in run.outcomes for p in o.problems})
    detail = {
        "workload": workload.name, "op": workload.op, "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale,
        "comparable": args.scale == 1.0, "traced": bool(args.trace),
        "host": host_tag(), "ref_nominal_s": hostclock.REF_NOMINAL_S,
        "units": len(run.units), "setups": len(run.setups),
        "ops_per_unit": run.outcomes[-1].ops,
        "failed_ops_share": failed / attempted,
        "raw_wall_s": sum(u.raw_wall_s for u in run.units),
        "raw_cpu_s": sum(u.raw_cpu_s for u in run.units),
        "raw_throughput_ops_s": statistics.median(
            o.ops / u.raw_wall_s for u, o in zip(run.units, run.outcomes)),
        "adjusted_wall_s": sum(u.wall_s for u in run.units),
        "process": dict(zip(("user_s", "sys_s", "minor_faults"), (
            usage.ru_utime, usage.ru_stime, usage.ru_minflt))),
        "report_sha256": hashlib.sha256(
            run.outcomes[-1].report.encode()).hexdigest(),
        "problems": problems}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}
    for name, unit in units.items():
        print(f"{workload.name:16s} {name:40s} {metrics[name]:16.6f} {unit}")
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "result": result}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Every workload, each in a fresh child


def run_child(workload: str, seed: int, seconds: float, scale: float,
              trace: int, out: Optional[str] = None
              ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One single-workload child; returns (result, detail)."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--scale", str(scale),
               "--trace", str(trace)]
    if out:
        command += ["--out", out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} (trace={trace}) exited with "
                           f"{done.returncode}")
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail


def orchestrate(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    passes = [0] if args.no_trace else [0, 1]
    stem = spans_stem(args.out) if args.out else None
    record: Dict[str, Any] = {
        "host": host_tag(), "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "comparable": args.scale == 1.0,
        "workloads": {}}
    ok = True
    span_parts: List[str] = []
    for name in names:
        entry: Dict[str, Any] = {}
        for trace in passes:
            part = f"{stem}.{name}.part.json" if stem and trace else None
            result, detail = run_child(name, args.seed, args.seconds,
                                       args.scale, trace, part)
            if part:
                os.unlink(part)
                span_parts.append(f"{stem}.{name}.part.spans.jsonl")
            kind = "per_layer" if trace else "end_to_end"
            entry[kind] = result["metrics"]
            entry[kind + "_detail"] = detail
            ok = ok and result["correct"]
            for metric, body in result["metrics"].items():
                print(f"{name:16s} {metric:40s} {body['value']:16.6f} "
                      f"{body['unit']}")
            print(f"{name:16s} {'failed_ops_share':40s} "
                  f"{detail['failed_ops_share']:16.6f} ratio   "
                  f"({kind}: {detail['units']} units, "
                  f"report sha256 {detail['report_sha256'][:16]})")
        record["workloads"][name] = entry
    if not record["comparable"]:
        print("NOT COMPARABLE: --scale is not 1")
    if stem:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as spans:
            for part in span_parts:
                with open(part, encoding="utf-8") as fh:
                    shutil.copyfileobj(fh, spans)
                os.unlink(part)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: measure in this process, "
                             "untraced (0) or traced (1)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier for smoke runs; results at "
                             "any value but 1 are not comparable")
    parser.add_argument("--out", help="write the results here as JSON; "
                        "spans go to its sibling *.spans.jsonl")
    args = parser.parse_args(argv)
    if args.workload and args.trace is not None:
        return single(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
