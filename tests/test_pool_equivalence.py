"""Parallel-equivalence suite: spec dispatch can never change output.

The engine's contract is that ``--workers`` is pure execution detail:
for every shardable builder and for chaos presets, the merged JSONL
bytes, replay results, metrics and rendered reports must be
byte-identical across worker counts — and the spec-dispatch paths must
reproduce the engine-free reference (``builder_reference.py``: the
builder's column stream read as records, in-process) exactly.

Real-pool coverage runs a few worker counts per case (inline and
pooled); how shards are batched into pool submissions is the engine's
own rule, so the Hypothesis property drives the full wire protocol
(header encode → memoized decode → per-shard blob decode → chunked
execution) in-process over arbitrary (total, shards, chunk_size), which
keeps the search wide without spawning processes per example.
"""

from __future__ import annotations

import inspect
import shutil
import tempfile
from functools import cache, partial
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.columnar import RowGroupReader
from repro.datasets.records import (JsonlFormatError, shard_path,
                                    write_jsonl, write_jsonl_text)
from repro.datasets.workload import split_columns
from repro.engine import (EngineReport, ShardSpec, WorkerPool,
                          client_sweep_sharded, fig1_sharded,
                          BUILDER_REGISTRY, generate_columnar,
                          generate_jsonl, replay_columnar_sharded,
                          run_sharded, shard_bounds)
from repro.engine.executor import (_chunk_bounds, _len_or_zero,
                                   _run_header_chunk)
from repro.engine import generate as engine_generate
from repro.engine.generate import _write_columnar_shard_from_spec
from repro.engine import replay as engine_replay
from repro.engine.pool import encode_header, encode_shard_args
from repro.engine.replay import _replay_lines_shard, replay_jsonl_sharded
from repro.engine.sharding import partition_by_key
from repro.faults.chaos import run_chaos
from repro.faults.presets import preset
from repro.obs import observe
from repro.obs.export import to_prometheus

from builder_reference import merged_records, shard_lists
from jsonl_reference import (merge_jsonl_shards, read_columnar, read_jsonl,
                             write_jsonl_shards)

#: Worker counts exercised per case.
#: workers=1 is the inline reference; the rest hit real process pools.
EXECUTION_MATRIX = (1, 2, 4)

#: Tiny-but-nonempty constructor kwargs per registered builder.
BUILDER_CASES = {
    "allnames": dict(scale=0.01, seed=7),
    "public-cdn": dict(scale=0.004, seed=7, duration_s=600.0),
    "cdn": dict(scale=0.004, seed=7, duration_s=900.0),
    "root-trace": dict(resolver_count=20, violators=3, duration_s=120.0,
                       seed=7),
}

SHARDS = 4

#: Trace kinds the replay engine understands, with their builders.
REPLAY_CASES = ("allnames", "public-cdn")


def _spec(name: str) -> ShardSpec:
    return ShardSpec.create(name, shard_count=SHARDS, **BUILDER_CASES[name])


class _References:
    """Each case's traces, generated once and shared by every test: what
    ``generate_jsonl`` and ``generate_columnar`` write at each worker
    count of :data:`EXECUTION_MATRIX`, with the count and engine report
    the call returned, and the oracle's replay of the reference records.
    A test that damages a trace copies it first."""

    def __init__(self, root: Path, oracle_replay) -> None:
        self._root = root
        self._oracle_replay = oracle_replay

    @cache
    def oracle(self, kind: str):
        return self._oracle_replay(merged_records(_spec(kind)), kind, SHARDS)

    @cache
    def generated(self, kind: str, fmt: str,
                  workers: int) -> Tuple[Path, int, EngineReport]:
        path = self._root / f"{kind}-w{workers}.{fmt}"
        generate = generate_jsonl if fmt == "jsonl" else generate_columnar
        with WorkerPool(workers):
            count, report = generate(_spec(kind), path, workers=workers)
        return path, count, report

    def trace(self, kind: str, fmt: str) -> Path:
        """The ``workers=1`` trace."""
        return self.generated(kind, fmt, 1)[0]


@pytest.fixture(scope="session")
def references(tmp_path_factory, oracle_replay):
    return _References(tmp_path_factory.mktemp("references"), oracle_replay)


@pytest.mark.parametrize("name", sorted(BUILDER_CASES))
def test_generate_records_equivalent_across_matrix(name, references):
    """Spec dispatch reproduces the in-process reference, per shard:
    each worker reports its shard's count, and the merged trace parses
    back to the merged reference records."""
    spec = _spec(name)
    reference, records = shard_lists(spec), merged_records(spec)
    for workers in EXECUTION_MATRIX:
        out, _, report = references.generated(name, "jsonl", workers)
        assert [s.records for s in report.shards] == \
            [len(shard) for shard in reference], (name, workers)
        assert read_jsonl(out, type(records[0])) == list(records)


@pytest.mark.parametrize("name", sorted(BUILDER_CASES))
def test_generate_jsonl_identical_bytes_across_matrix(name, tmp_path,
                                                      references):
    """Worker-written shard files merge to the reference trace, bytewise."""
    # Reference route: records materialized in the parent, shard files
    # written parent-side, merged a line at a time.
    reference_lists = shard_lists(_spec(name))
    ref_path = tmp_path / "reference.jsonl"
    paths = write_jsonl_shards(reference_lists, ref_path)
    merge_jsonl_shards(paths, ref_path)
    reference = ref_path.read_bytes()
    for workers in EXECUTION_MATRIX:
        out, count, _ = references.generated(name, "jsonl", workers)
        assert out.read_bytes() == reference, (name, workers)
        assert count == sum(len(s) for s in reference_lists)
        assert not list(out.parent.glob(f"{out.name}.shard*")), \
            "shard files must be cleaned up"


@pytest.mark.parametrize("kind", REPLAY_CASES)
def test_replay_equivalent_across_matrix(kind, references):
    """JSONL-line and spec-generated columnar replays equal the oracle."""
    trace = references.trace(kind, "jsonl")
    # The oracle replays the merged reference records, the same
    # canonical order the JSONL trace and spec paths see.
    records = merged_records(_spec(kind))
    reference = references.oracle(kind)
    for workers in EXECUTION_MATRIX:
        # Builder spec -> columnar file (at this worker count) -> replay:
        # the dataset never materializes in the parent.
        spec_trace, _, _ = references.generated(kind, "col", workers)
        with WorkerPool(workers):
            from_lines, line_report = replay_jsonl_sharded(
                trace, kind, shards=SHARDS, workers=workers)
            from_spec, spec_report = replay_columnar_sharded(
                spec_trace, kind, shards=SHARDS, workers=workers)
        assert from_lines == reference, (kind, workers)
        assert from_spec == reference, (kind, workers)
        assert (line_report.total_records == spec_report.total_records
                == len(records))
        # A JSONL shard ships its spill file's path, not its lines.
        assert line_report.payload_bytes_per_shard < 1024


@pytest.mark.parametrize("kind", REPLAY_CASES)
def test_generate_columnar_identical_bytes_across_matrix(kind, references):
    """Worker-written columnar shards merge to the reference, bytewise.

    public-cdn shards overlap in time, so this also pins the segment
    merge to the canonical ts-ordered k-way merge, not concatenation.
    """
    records = merged_records(_spec(kind))
    ref_out = references.trace(kind, "col")
    assert read_columnar(ref_out) == list(records)
    reference = ref_out.read_bytes()
    for workers in EXECUTION_MATRIX:
        out, count, _ = references.generated(kind, "col", workers)
        assert out.read_bytes() == reference, (kind, workers)
        assert count == len(records)
        assert not list(out.parent.glob(f"{out.name}.shard*")), \
            "columnar shard files must be cleaned up"


@pytest.mark.parametrize("kind", REPLAY_CASES)
def test_replay_columnar_equivalent_across_matrix(kind, references):
    """Columnar replay == JSONL replay == the oracle, any pool shape."""
    records = merged_records(_spec(kind))
    reference = references.oracle(kind)
    col_trace = references.trace(kind, "col")
    jsonl_trace = references.trace(kind, "jsonl")
    for workers in EXECUTION_MATRIX:
        with WorkerPool(workers):
            from_cols, col_report = replay_columnar_sharded(
                col_trace, kind, shards=SHARDS, workers=workers)
            from_lines, line_report = replay_jsonl_sharded(
                jsonl_trace, kind, shards=SHARDS, workers=workers)
        assert from_cols == reference, (kind, workers)
        assert from_lines == reference, (kind, workers)
        assert (col_report.total_records == line_report.total_records
                == len(records))


def test_replay_metrics_identical_across_workers(references):
    """The exported Prometheus text is workers-invariant."""
    trace = references.trace("allnames", "jsonl")
    renderings = set()
    for workers in EXECUTION_MATRIX:
        with observe(metrics=True) as session:
            with WorkerPool(workers):
                replay_jsonl_sharded(trace, "allnames", shards=SHARDS,
                                     workers=workers)
        renderings.add(to_prometheus(session.registry))
    assert len(renderings) == 1


@pytest.mark.parametrize("preset_name", ("lossy", "heavy-loss"))
def test_chaos_report_identical_across_matrix(preset_name):
    """Chaos campaigns render byte-identical reports on any pool config."""
    plan = preset(preset_name)
    reports = set()
    for workers in EXECUTION_MATRIX:
        with WorkerPool(workers):
            result, _ = run_chaos(plan, seed=3, fault_seed=11, ingress=16,
                                  shards=SHARDS, workers=workers)
        reports.add(result.report())
    assert len(reports) == 1


# ---------------------------------------------------------------------------
# Hypothesis: the spec-dispatch wire protocol over arbitrary decompositions.


class TinyTraceBuilder:
    """A deterministic synthetic builder for protocol-level properties.

    Row ``j`` depends only on ``j``, so any (shards, chunk) split of
    ``[0, total)`` must reassemble to the same trace; ``ts`` is ``j``, so
    the stream is in global ts order.  ``fail_shard`` names a shard
    whose stream raises, inside the worker.
    """

    ITER_SHARD_SORTED = True

    def __init__(self, total: int = 40, seed: int = 0,
                 fail_shard: Optional[int] = None):
        self.total = total
        self.seed = seed
        self.fail_shard = fail_shard

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        if shard_index == self.fail_shard:
            raise RuntimeError(f"shard {shard_index} cannot be built")
        span = range(*shard_bounds(self.total, shard_count)[shard_index])
        yield from split_columns([
            [float(j) for j in span],
            [f"10.{self.seed % 200}.{j % 8}.{j % 5 + 1}" for j in span],
            [f"h{j % 13}.example." for j in span], [1] * len(span),
            [16 if j % 3 else 24 for j in span], [60] * len(span)])


BUILDER_REGISTRY["tiny-trace"] = "test_pool_equivalence:TinyTraceBuilder"


def _run_protocol(fn, shard_args, shared, chunk_size) -> List[Any]:
    """Drive the pooled wire protocol in-process: encode, chunk, decode.

    Exactly what ``run_sharded`` submits to a pool — header serialized
    once, per-shard blobs, chunked worker calls — minus the process
    boundary, so Hypothesis can afford hundreds of decompositions.
    """
    header = encode_header(fn, tuple(shared))
    blobs = [encode_shard_args(tuple(args), i)
             for i, args in enumerate(shard_args)]
    outcomes = []
    for lo, hi in _chunk_bounds(len(blobs), chunk_size):
        outcomes.extend(_run_header_chunk(header, blobs[lo:hi], lo,
                                          _len_or_zero, False, None))
    return [outcome[0] for outcome in outcomes]


@settings(max_examples=30, deadline=None)
@given(total=st.integers(min_value=0, max_value=80),
       shards=st.integers(min_value=1, max_value=6),
       chunk_size=st.integers(min_value=1, max_value=5))
def test_spec_protocol_reproduces_reference(total, shards, chunk_size,
                                            oracle_replay):
    """Property: spec dispatch == in-process reference for any split."""
    spec = ShardSpec.create("tiny-trace", shard_count=shards, total=total,
                            seed=total % 7)
    reference_lists = shard_lists(spec, "allnames")
    records = merged_records(spec, "allnames")
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "tiny.col"
        counts = _run_protocol(_write_columnar_shard_from_spec,
                               [(i,) for i in range(shards)],
                               (spec, str(base), "allnames", None),
                               chunk_size)
        assert counts == [len(shard) for shard in reference_lists]
        assert tuple(tuple(read_columnar(shard_path(base, i)))
                     for i in range(shards)) == reference_lists
        write_jsonl(records, base)
        lines = base.read_text().splitlines(keepends=True)
        buckets = partition_by_key(list(zip(records, lines)), shards,
                                   lambda pair: pair[0].qname)
        spills = [Path(scratch) / f"bucket-{index}.jsonl"
                  for index in range(shards)]
        for spill, bucket in zip(spills, buckets):
            spill.write_text("".join(line for _, line in bucket))
        partials = _run_protocol(_replay_lines_shard,
                                 [(str(spill),) for spill in spills],
                                 ("allnames",), chunk_size)
    from repro.analysis.cache_sim import merge_partials
    assert merge_partials(partials) == oracle_replay(records, "allnames",
                                                     shards)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("fail_shard", (0, 3))
@pytest.mark.parametrize("generate,name", (("generate_jsonl", "x.jsonl"),
                                           ("generate_columnar", "x.col")))
def test_failed_generate_leaves_nothing_behind(generate, name, fail_shard,
                                               workers, tmp_path,
                                               monkeypatch):
    """One shard of four raises — the last, after the others finished,
    or the first, while a shared pool is still building the others:
    neither the trace, nor JSONL's scratch ``.col``, nor one of the
    ``<file>.shardNN`` siblings is on disk once the pool is done."""
    spec = ShardSpec.create("tiny-trace", shard_count=4, total=40000,
                            fail_shard=fail_shard)
    # The tiny builder has no schema of its own: its rows are allnames,
    # for the columnar case and for the pipeline under the JSONL one.
    monkeypatch.setattr(engine_generate, "generate_columnar",
                        partial(generate_columnar, schema="allnames"))
    with WorkerPool(workers):
        with pytest.raises(RuntimeError, match="cannot be built"):
            getattr(engine_generate, generate)(spec, tmp_path / name,
                                               workers=workers)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("damage", ("none", "hostile-line", "not-utf8",
                                    "shard-raises"))
def test_jsonl_replay_leaves_no_spill_directory(damage, workers, tmp_path,
                                                monkeypatch, references):
    """The spill files of a JSONL replay live in one private temporary
    directory, which is gone once the replay ends: cleanly, on a line
    that is not a row, on bytes that are not UTF-8, and when a shard
    raises in its worker.  Nothing is written beside the trace."""
    trace = tmp_path / "t.jsonl"
    shutil.copyfile(references.trace("allnames", "jsonl"), trace)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    if damage == "hostile-line":
        with open(trace, "a") as fh:
            fh.write('{"ts":9e9}\n')
    elif damage == "not-utf8":
        with open(trace, "ab") as fh:
            fh.write(b'{"ts":9e9,"qname":"a.\xffexample."}\n')
    elif damage == "shard-raises":
        # Every line a row, but no shard's rows in time order.
        lines = trace.read_text().splitlines(keepends=True)
        trace.write_text("".join(reversed(lines)))
    seen = []
    parse = engine_replay._parse_lines

    def parse_and_look(kind, lines):
        seen.extend(p.name for p in scratch.iterdir())
        return parse(kind, lines)

    # At workers=1 shards parse in this process, which sees the directory.
    monkeypatch.setattr(engine_replay, "_parse_lines", parse_and_look)
    with WorkerPool(workers):
        if damage == "none":
            _, report = replay_jsonl_sharded(trace, "allnames",
                                             shards=SHARDS, workers=workers)
            assert report.total_records > 0
        else:
            error, match = {
                "hostile-line": (JsonlFormatError, "missing field"),
                "not-utf8": (JsonlFormatError, "not UTF-8"),
                "shard-raises": (ValueError, "follows ts")}[damage]
            with pytest.raises(error, match=match):
                replay_jsonl_sharded(trace, "allnames", shards=SHARDS,
                                     workers=workers)
    if workers == 1 and damage != "not-utf8":
        assert seen and all(name.startswith("repro-replay-")
                            for name in seen)
    assert not list(scratch.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl", "tmp"]


def test_failed_render_leaves_nothing_behind(tmp_path, monkeypatch):
    """The JSONL route's last step raising mid-write — after the columnar
    pipeline finished — leaves no destination and no scratch ``.col``;
    whatever the destination held before stays."""
    def render_then_fail(src, dst):
        def lines():
            with RowGroupReader(src) as reader:
                yield from reader.group(0).jsonl_chunks()
            raise RuntimeError("render failed")
        return write_jsonl_text(lines(), dst)

    monkeypatch.setattr(engine_generate, "columnar_to_jsonl",
                        render_then_fail)
    spec = _spec("allnames")
    out = tmp_path / "x.jsonl"
    with pytest.raises(RuntimeError, match="render failed"):
        generate_jsonl(spec, out)
    assert not list(tmp_path.iterdir())
    out.write_text("before\n")
    with pytest.raises(RuntimeError, match="render failed"):
        generate_jsonl(spec, out)
    assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]
    assert out.read_text() == "before\n"


def test_registry_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown builder"):
        ShardSpec.create("no-such-builder")


def test_run_sharded_payload_accounting():
    """Pooled dispatch records per-shard payload bytes; inline records 0."""
    spec = _spec("public-cdn")
    _, inline_report = fig1_sharded(spec, (20,), workers=1)
    assert inline_report.payload_bytes == 0
    assert inline_report.header_bytes == 0
    with WorkerPool(2):
        _, pooled_report = fig1_sharded(spec, (20,), workers=2)
    assert pooled_report.header_bytes > 0
    assert all(s.payload_bytes > 0 for s in pooled_report.shards)
    # The whole point: per-shard specs are tiny, not record-list-sized.
    assert pooled_report.payload_bytes_per_shard < 1024


def test_sharded_entry_points_take_no_dispatch_options():
    for fn in (run_sharded, replay_jsonl_sharded, replay_columnar_sharded,
               fig1_sharded, client_sweep_sharded, generate_jsonl,
               generate_columnar, run_chaos):
        assert not {"chunk_size", "pool"} \
            & set(inspect.signature(fn).parameters), fn


# ---------------------------------------------------------------------------
# Row-group (v2) pipeline: flush cadence is execution detail too.


@pytest.mark.parametrize("kind", REPLAY_CASES)
@pytest.mark.parametrize("flush_rows", (37, 256))
def test_row_group_generate_identical_bytes_across_matrix(kind, flush_rows,
                                                          tmp_path,
                                                          references):
    """Generation is byte-identical across pools AND value-identical to
    the default-budget output for every worker flush cadence.

    ``row_group_rows`` bounds how many rows a worker buffers before
    flushing a group; like ``--workers`` it must never leak into the
    values, only into the layout.
    """
    spec = _spec(kind)
    reference_records = read_columnar(references.trace(kind, "col"))
    ref_bytes = None
    for workers in EXECUTION_MATRIX:
        out = tmp_path / f"{kind}-w{workers}.col"
        with WorkerPool(workers):
            count, _ = generate_columnar(spec, out, workers=workers,
                                         row_group_rows=flush_rows)
        assert count == len(reference_records)
        if ref_bytes is None:
            ref_bytes = out.read_bytes()
            assert read_columnar(out) == reference_records
            with RowGroupReader(out) as reader:
                assert all(reader.group_rows(g) <= flush_rows
                           for g in range(reader.group_count))
        else:
            assert out.read_bytes() == ref_bytes, (kind, flush_rows,
                                                   workers)


@pytest.mark.parametrize("kind", REPLAY_CASES)
@pytest.mark.parametrize("flush_rows", (64, 512))
def test_row_range_replay_equivalent_across_matrix(kind, flush_rows,
                                                   tmp_path, references):
    """Pre-bucketed row-range replay == flat replay, any pool shape."""
    from repro.datasets.columnar import bucketed_group_ranges, \
        convert_columnar
    flat = references.trace(kind, "col")
    reference, ref_report = replay_columnar_sharded(flat, kind,
                                                    shards=SHARDS,
                                                    workers=1)
    bucketed = tmp_path / f"{kind}.bucketed.col"
    convert_columnar(flat, bucketed, buckets=SHARDS,
                     row_group_rows=flush_rows)
    assert bucketed_group_ranges(bucketed) is not None
    for workers in EXECUTION_MATRIX:
        with WorkerPool(workers):
            got, report = replay_columnar_sharded(bucketed, kind,
                                                  shards=SHARDS,
                                                  workers=workers)
        assert got == reference, (kind, flush_rows, workers)
        assert report.total_records == ref_report.total_records
