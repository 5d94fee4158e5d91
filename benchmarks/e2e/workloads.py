"""The seven workloads: what runs, what one op is, how output is checked.

Each workload is a closed loop with one client.  A *unit* is one fixed,
seed-determined piece of work; the harness repeats identical units
until ``--seconds`` of timed work are done and reports the median unit.
A unit's ``run`` is a generator: the code between two ``yield``\\ s is
one timed *slice* (a call into the program's public API), and whatever
a slice yields is kept for ``check``, which runs untimed.

Sizes below are per unit at ``--scale 1``.  They are smaller than a
paper-scale campaign because the benchmark's driver allots about 20 s
to a whole run, set-up included, and wants set-up repeated; what is
measured per run (about 6 s of timed work) is not.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Sequence

import repro.analysis.cache_sim as cache_sim
import repro.analysis.mapping_quality as mapping_quality
import repro.datasets.columnar as columnar
import repro.engine.generate as engine_generate
import repro.engine.replay as engine_replay
import repro.faults.chaos as chaos
from repro.core.classify import CachingCategory
from repro.datasets import paper_numbers as paper
from repro.datasets.records import write_jsonl
from repro.datasets.scan_dataset import ScanUniverseBuilder
from repro.engine.sharding import ShardSpec, partition_by_key
from repro.faults.presets import preset
from repro.measure.caching_probe import CachingBehaviorProber
from repro.measure.scanner import Scanner

#: Shards of every sharded call; part of the experiment's identity.
SHARDS = 8

#: Rows of a trace that the replay workloads re-check against the
#: readable ``replay_partial`` oracle.
ORACLE_ROWS = 50_000


def scaled(size: int, scale: float, floor: int) -> int:
    return max(floor, round(size * scale))


@dataclass
class Outcome:
    """What one unit did, as established by ``check``."""

    ops: int
    failed: int
    #: Rendered result; its SHA-256 goes to the output for humans to
    #: diff across commits.
    report: str
    #: Counts the tracer's self-check must reproduce.
    expected: Dict[str, int] = field(default_factory=dict)
    #: Layer metrics only the workload can know (not per-op scaled).
    extras: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class Workload:
    """Base: a named unit of work over the program's public API."""

    name = ""
    #: What one op is, for the output.
    op = ""
    #: Which span opens a new op id (see ``layers.OP_ENTRIES``).
    op_entry: Any = None
    #: True when ``run`` leaves the fixture as it found it, so the
    #: harness may reuse it instead of setting up before every unit.
    reusable = False

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._paths = itertools.count()

    def path(self, suffix: str) -> str:
        """A fresh file name under the run's scratch directory."""
        return os.path.join(self.workdir, f"{next(self._paths):04d}{suffix}")

    def setup(self) -> Any:
        raise NotImplementedError

    def run(self, fixture: Any) -> Iterator[Any]:
        raise NotImplementedError

    def check(self, fixture: Any, outputs: List[Any],
              deep: bool) -> Outcome:
        """Verify one unit.  ``deep`` adds the expensive cross-checks;
        the harness asks for them once per run."""
        raise NotImplementedError

    def discard(self, fixture: Any) -> None:
        """Release what ``setup`` made (files; objects just drop)."""

    def untimed_layer_metrics(self, fixture: Any) -> Dict[str, float]:
        """Layer metrics that need a pass of their own after the traced
        units (none for most workloads)."""
        return {}


def _fail_all(outcome: Outcome, problem: str) -> None:
    """A violated workload-level invariant fails every op."""
    outcome.problems.append(problem)
    outcome.failed = outcome.ops


# ---------------------------------------------------------------------------
# The live wire path


class ScanClean(Workload):
    name = "scan_clean"
    op = "ingress probe"
    op_entry = "client"
    #: Targets per Scanner.scan call, i.e. per timed slice.
    CHUNK = 40

    def setup(self) -> Any:
        return ScanUniverseBuilder(
            seed=self.seed,
            ingress_count=scaled(800, self.scale, 40)).build()

    def run(self, universe: Any) -> Iterator[Any]:
        scanner = Scanner(universe)
        targets = universe.forwarder_ips
        for lo in range(0, len(targets), self.CHUNK):
            yield scanner.scan(targets[lo:lo + self.CHUNK])

    def check(self, universe: Any, outputs: List[Any],
              deep: bool) -> Outcome:
        probes = len(universe.forwarder_ips)
        responding = set().union(*(r.responding_ingress for r in outputs))
        records = sum(len(r.records) for r in outputs)
        ecs = sum(1 for r in outputs for rec in r.records if rec.has_ecs)
        outcome = Outcome(
            ops=probes, failed=probes - len(responding),
            report=f"probes {probes} responding {len(responding)} "
                   f"records {records} ecs_records {ecs} "
                   f"datagrams {universe.net.stats.datagrams} "
                   f"bytes {universe.net.stats.bytes_sent}")
        if records != probes:
            _fail_all(outcome, f"{records} scan records for {probes} probes")
        return outcome


class ChaosLossy(Workload):
    name = "chaos_lossy"
    op = "ingress probe"
    op_entry = "client"
    reusable = True
    #: run_chaos calls per unit, one per slice (each builds, faults and
    #: scans two universes), so the speed reference is taken between.
    CAMPAIGNS = 2

    def setup(self) -> Any:
        return preset("lossy")

    def run(self, plan: Any) -> Iterator[Any]:
        for index in range(self.CAMPAIGNS):
            yield chaos.run_chaos(plan, seed=self.seed + index,
                                  fault_seed=self.seed + 7 + index,
                                  ingress=scaled(400, self.scale, 40),
                                  shards=2, workers=1)[0]

    def check(self, plan: Any, outputs: List[Any], deep: bool) -> Outcome:
        probes = sum(r.totals.probes for r in outputs)
        unanswered = sum(r.totals.unanswered for r in outputs)
        # Unanswered probes are the experiment's outcome under 15% loss,
        # not failures; they are reported as faults.unanswered_share.
        outcome = Outcome(
            ops=probes, failed=0,
            report="\n".join(r.report() for r in outputs),
            extras={"faults.unanswered_share": unanswered / probes})
        for result in outputs:
            totals = result.totals
            if totals.probes != totals.responded + totals.unanswered:
                _fail_all(outcome, "probes != responded + unanswered")
            if totals.attempts < totals.probes:
                _fail_all(outcome, "fewer client attempts than probes")
        return outcome


class CachingTwin(Workload):
    name = "caching_twin"
    op = "resolver report"
    op_entry = "probe"
    UNIVERSES = 3

    def setup(self) -> Any:
        return [ScanUniverseBuilder(
            seed=self.seed + index,
            ingress_count=scaled(300, self.scale, 120)).build()
            for index in range(self.UNIVERSES)]

    def run(self, universes: Any) -> Iterator[Any]:
        for universe in universes:
            prober = CachingBehaviorProber(universe)
            yield prober.probe_all(), prober.probe_megadns()

    def check(self, universes: Any, outputs: List[Any],
              deep: bool) -> Outcome:
        reports = [r for per_universe, _ in outputs for r in per_universe]
        megadns = [m for _, m in outputs]
        counts = Counter(r.category for r in reports)
        outcome = Outcome(
            ops=len(reports) + sum(1 for m in megadns if m is not None),
            failed=0,
            report=" ".join(f"{c.value}={counts.get(c, 0)}"
                            for c in CachingCategory)
            + " megadns=" + ",".join(m.category.value if m else "none"
                                     for m in megadns)
            # The category mix is the same for every seed; where the
            # resolvers sit, hence the virtual time the probing took,
            # is not.
            + " virtual_s=" + ",".join(f"{u.net.clock.now():.6f}"
                                       for u in universes))
        for per_universe, mega in outputs:
            if len({r.resolver_ip for r in per_universe}) \
                    != len(per_universe):
                _fail_all(outcome, "a resolver was reported twice")
            if mega is None or mega.category is not CachingCategory.CORRECT:
                _fail_all(outcome, "public resolver not classified correct")
        # The shape benchmarks/test_bench_caching_behavior.py asserts.
        ordered = [counts.get(c, 0) for c in (
            CachingCategory.IGNORES_SCOPE, CachingCategory.ACCEPTS_OVER_24,
            CachingCategory.CLAMPS_AT_22, CachingCategory.PRIVATE_PREFIX)]
        if not (ordered[0] > ordered[1] > ordered[2] >= ordered[3] >= 1
                and counts.get(CachingCategory.CORRECT, 0) >= 1
                and ordered[0] >= max(counts.values())):
            _fail_all(outcome, f"category shape broken: {dict(counts)}")
        return outcome


class MappingDirect(Workload):
    name = "mapping_direct"
    op = "ECS query + handshake sample"
    op_entry = "client"
    PREFIX_LENGTHS = tuple(range(16, 25))

    def setup(self) -> Any:
        return mapping_quality.MappingQualityLab.build(
            probe_count=scaled(200, self.scale, 20), seed=self.seed)

    def run(self, lab: Any) -> Iterator[Any]:
        for cdn, qname in ((lab.cdn1, lab.cdn1_qname),
                           (lab.cdn2, lab.cdn2_qname)):
            for length in self.PREFIX_LENGTHS:
                yield mapping_quality.measure_mapping_quality(
                    lab, cdn, qname, prefix_lengths=(length,),
                    seed=self.seed)

    def check(self, lab: Any, outputs: List[Any], deep: bool) -> Outcome:
        probes = len(lab.atlas.probes)
        per_cdn = len(self.PREFIX_LENGTHS)
        samples = sum(len(v) for s in outputs
                      for v in s.latencies_ms.values())
        attempted = probes * len(outputs)
        outcome = Outcome(ops=attempted, failed=attempted - samples,
                          report="")
        lines = []
        for name, floor, sweep in (
                ("cdn1", paper.CDN1_MIN_PREFIX, outputs[:per_cdn]),
                ("cdn2", paper.CDN2_MIN_PREFIX, outputs[per_cdn:])):
            medians = {}
            unique = {}
            for series in sweep:
                (length,) = series.latencies_ms
                medians[length] = series.median(length)
                unique[length] = series.unique_answers[length]
            lines.append(name + " " + " ".join(
                f"/{L}:{medians[L]:.3f}ms/{unique[L]}"
                for L in sorted(medians)))
            # The cliff: ECS is used down to `floor` (many edges, near
            # ones) and ignored below it (one resolver-mapped edge).
            if not (medians[floor - 1] > 3 * medians[floor]
                    and unique[floor - 1] <= 3 < unique[floor]):
                _fail_all(outcome, f"{name}: no cliff below /{floor}")
        outcome.report = "\n".join(lines)
        return outcome


# ---------------------------------------------------------------------------
# The trace path


def _trace_spec(seed: int, scale: float) -> ShardSpec:
    return ShardSpec.create("allnames", shard_count=SHARDS, scale=scale,
                            seed=seed)


def _oracle(records: Sequence[Any]) -> Any:
    """The readable reference: ``replay_partial`` per qname bucket."""
    buckets = partition_by_key(records, SHARDS, lambda r: r.qname)
    accessors = engine_replay.ACCESSORS["allnames"]
    return cache_sim.merge_partials(
        cache_sim.replay_partial(bucket, *accessors) for bucket in buckets)


class TraceWrite(Workload):
    name = "trace_write"
    op = "row"
    reusable = True
    #: One unit writes this many traces, one per slice, so the speed
    #: reference is taken every quarter second and not once per unit.
    TRACES = 3
    TRACE_SCALE = 0.1
    ROW_GROUP_ROWS = 4096
    SAMPLE_ROWS = 10_000

    def setup(self) -> Any:
        return [_trace_spec(self.seed + index,
                            self.TRACE_SCALE * self.scale)
                for index in range(self.TRACES)]

    def run(self, specs: Any) -> Iterator[Any]:
        for spec in specs:
            path = self.path(".col")
            rows, _ = engine_generate.generate_columnar(
                spec, path, workers=1, row_group_rows=self.ROW_GROUP_ROWS)
            yield rows, path

    def check(self, specs: Any, outputs: List[Any], deep: bool) -> Outcome:
        rows = sum(count for count, _ in outputs)
        size = sum(os.path.getsize(path) for _, path in outputs)
        groups = 0
        outcome = Outcome(
            ops=rows, failed=0, report="",
            extras={"datasets.columnar.write.bytes_per_op": size / rows})
        for count, path in outputs:
            info = columnar.file_info(path)
            groups += info["row_groups"]
            if info["rows"] != count:
                _fail_all(outcome, f"header says {info['rows']} rows, "
                                   f"generate returned {count}")
        outcome.report = f"rows {rows} bytes {size} groups {groups}"
        if deep:
            # Shard 0 is the earliest time window, so the head of the
            # merged file is the head of shard 0's record stream.
            head = list(itertools.islice(
                specs[0].make_builder().iter_shard(0, SHARDS),
                self.SAMPLE_ROWS))
            sample = head[:max(1, len(head) // 2)]
            with columnar.RowGroupReader(outputs[0][1]) as reader:
                stored = list(itertools.islice(reader.iter_records(),
                                               len(sample)))
            if stored != sample:
                _fail_all(outcome, "rows read back differ from the "
                                   "builder's records")
            digest = hashlib.sha256()
            for _, path in outputs:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            outcome.report += f" files_sha256 {digest.hexdigest()}"
        for _, path in outputs:
            os.unlink(path)
        return outcome

    def untimed_layer_metrics(self, specs: Any) -> Dict[str, float]:
        """Bytes crossing the pool boundary: one pass at ``workers=2``.

        Exact for a given seed because the scratch path has a fixed
        length.  Advisory evidence for the ``--pool`` decision.
        """
        path = self.path(".col")
        _, report = engine_generate.generate_columnar(
            specs[0], path, workers=2, row_group_rows=self.ROW_GROUP_ROWS)
        os.unlink(path)
        return {"engine.payload_bytes_per_shard":
                report.payload_bytes_per_shard,
                "engine.header_bytes": float(report.header_bytes)}


class _Replay(Workload):
    """Shared by the two replay workloads: a trace in both formats."""

    reusable = True
    TRACE_SCALE = 0.3
    ROW_GROUP_ROWS = 16384
    PASSES = 1

    def setup(self) -> Any:
        path = self.path(".col")
        rows, _ = engine_generate.generate_columnar(
            _trace_spec(self.seed, self.TRACE_SCALE * self.scale), path,
            workers=1, row_group_rows=self.ROW_GROUP_ROWS)
        return {"col": path, "rows": rows}

    def discard(self, fixture: Any) -> None:
        for key in ("col", "jsonl"):
            if key in fixture:
                os.unlink(fixture[key])

    def replay(self, fixture: Any) -> Any:
        raise NotImplementedError

    def run(self, fixture: Any) -> Iterator[Any]:
        for _ in range(self.PASSES):
            yield self.replay(fixture)

    def check(self, fixture: Any, outputs: List[Any],
              deep: bool) -> Outcome:
        rows = fixture["rows"]
        first = outputs[0]
        outcome = Outcome(ops=rows * len(outputs), failed=0,
                          report=repr(first),
                          expected={"replay.rows": rows * len(outputs)})
        if any(result != first for result in outputs):
            _fail_all(outcome, "passes over one trace disagree")
        if deep:
            self._cross_check(fixture, first, outcome)
        return outcome

    def _cross_check(self, fixture: Any, result: Any,
                     outcome: Outcome) -> None:
        """Columnar replay == JSONL replay == the oracle, on the head of
        the trace; and on the whole trace where both files exist."""
        with columnar.RowGroupReader(fixture["col"]) as reader:
            head = list(itertools.islice(reader.iter_records(),
                                         ORACLE_ROWS))
        head_col, head_jsonl = self.path(".col"), self.path(".jsonl")
        columnar.write_columnar_stream(head, head_col, "allnames",
                                       self.ROW_GROUP_ROWS)
        write_jsonl(head, head_jsonl)
        want = _oracle(head)
        via_col, _ = engine_replay.replay_columnar_sharded(
            head_col, "allnames", shards=SHARDS, workers=1)
        via_jsonl, _ = engine_replay.replay_jsonl_sharded(
            head_jsonl, "allnames", shards=SHARDS, workers=1)
        os.unlink(head_col)
        os.unlink(head_jsonl)
        if not via_col == via_jsonl == want:
            _fail_all(outcome, "columnar, JSONL and oracle replay of the "
                               "trace head disagree")
        if "jsonl" in fixture:
            whole, _ = engine_replay.replay_columnar_sharded(
                fixture["col"], "allnames", shards=SHARDS, workers=1)
            if whole != result:
                _fail_all(outcome, "columnar and JSONL replay of the "
                                   "whole trace disagree")


class ReplayColumnar(_Replay):
    name = "replay_columnar"
    op = "row"
    PASSES = 3

    def replay(self, fixture: Any) -> Any:
        return engine_replay.replay_columnar_sharded(
            fixture["col"], "allnames", shards=SHARDS, workers=1)[0]


class ReplayJsonl(_Replay):
    name = "replay_jsonl"
    op = "row"
    TRACE_SCALE = 0.15

    def setup(self) -> Any:
        fixture = super().setup()
        fixture["jsonl"] = self.path(".jsonl")
        columnar.columnar_to_jsonl(fixture["col"], fixture["jsonl"])
        return fixture

    def replay(self, fixture: Any) -> Any:
        return engine_replay.replay_jsonl_sharded(
            fixture["jsonl"], "allnames", shards=SHARDS, workers=1)[0]

    def check(self, fixture: Any, outputs: List[Any],
              deep: bool) -> Outcome:
        outcome = super().check(fixture, outputs, deep)
        outcome.expected["calls:datasets.jsonl.parse"] = \
            SHARDS * len(outputs)
        return outcome


WORKLOADS: Dict[str, Callable[[int, float, str], Workload]] = {
    cls.name: cls for cls in (ScanClean, ChaosLossy, CachingTwin,
                              MappingDirect, TraceWrite, ReplayColumnar,
                              ReplayJsonl)}
