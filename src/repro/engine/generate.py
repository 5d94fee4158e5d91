"""Sharded dataset generation by shard-spec dispatch.

A *shardable builder* has one row loop, and it fills columns.  The
engine reads one thing of it, and one flag::

    iter_shard_columns(index, count) -> Iterator[chunk] # one shard's rows,
        # one list per schema column, 1..COLUMN_CHUNK_ROWS rows a chunk
    ITER_SHARD_SORTED = True   # optional: the stream is in global ts order

A shard's stream must depend only on the builder's parameters and the
shard index (its random stream is seeded via
:func:`repro.engine.seeding.derive_seed`), never on which worker runs
it.  The engine then guarantees the merged output is identical for any
worker count, because shards are generated from fixed seeds and merged
in shard order.

There is one generation pipeline.  Every entry point ships a
:class:`~repro.engine.sharding.ShardSpec` (builder name + kwargs, tens
of bytes) and rebuilds the builder inside the worker; the engine-free
reference the equivalence suites pin them against reads the same
stream as records, in-process (``tests/builder_reference.py``).  No
entry point returns records: each :func:`generate_columnar` worker
writes its shard to the conventional ``<file>.shardNN`` sibling itself,
from the column stream (:func:`_write_columnar_shard_from_spec`), and
returns only a count, so *nothing* record-shaped crosses the pool
boundary in either direction — the parent just merges the shard files.
:func:`generate_jsonl` is that pipeline into a scratch ``.col``,
rendered by :func:`~repro.datasets.columnar.columnar_to_jsonl`.
(Figure 1 writes no file at all: :func:`repro.engine.replay.fig1_sharded`.)
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from ..datasets.columnar import (ColumnarStore, GroupedColumnarWriter,
                                 _stable_ts_order, columnar_to_jsonl,
                                 merge_columnar_shards)
from ..datasets.records import shard_path
from ..obs import live as _obs_live
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .executor import EngineReport, run_sharded
from .sharding import ShardSpec


def _count_generated_rows(builder: Any, count: int) -> None:
    """Record the per-shard generation counter (all dispatch paths)."""
    reg = _obs_metrics.ACTIVE
    if reg is not None:
        reg.counter("repro_generate_records_total",
                    "Records produced by sharded generation, per builder.",
                    ("builder",)).inc(count, type(builder).__name__)


def _write_columnar_shard_from_spec(spec: ShardSpec, out_base: str,
                                    schema: str,
                                    row_group_rows: Optional[int],
                                    shard_index: int) -> int:
    """Worker entry point: write one shard, ts-ordered, as a columnar
    sibling.

    Only the count crosses the pool boundary; the packed segments wait
    on disk for the parent's merge.  Shard files are always the v2
    row-group layout and ``row_group_rows`` is their group size,
    nothing else.  The rows reach the writer as the builder's column
    stream — no record, no temporary file — in stable ts order, by one
    of two routes:

    * a stream in global ts order (``ITER_SHARD_SORTED``) goes to
      :meth:`~repro.datasets.columnar.GroupedColumnarWriter.extend_columns`
      chunk by chunk, one row group held;
    * any other stream becomes one in-memory store written through its
      stable ts order (ties in emission order), so the worker holds the
      shard's columns: about 130 B a row at its peak
      (``docs/datasets.md``), and ``--shards`` bounds it.
    """
    builder = spec.make_builder()
    chunks = builder.iter_shard_columns(shard_index, spec.shard_count)
    tracer = _obs_trace.ACTIVE
    with (tracer.span("shard", builder=spec.builder) if tracer is not None
          else nullcontext()), \
            GroupedColumnarWriter(schema, shard_path(out_base, shard_index),
                                  row_group_rows) as writer:
        if getattr(builder, "ITER_SHARD_SORTED", False):
            for chunk in chunks:
                writer.extend_columns(chunk)
        else:
            store = ColumnarStore.from_column_chunks(chunks, schema)
            writer.extend_store(store, rows=_stable_ts_order(store))
    count = writer.rows
    _count_generated_rows(builder, count)
    return count


def generate_columnar(spec: ShardSpec, out_path: Union[str, Path],
                      schema: Optional[str] = None, workers: int = 1,
                      row_group_rows: Optional[int] = None
                      ) -> Tuple[int, EngineReport]:
    """Generate ``spec`` straight to a columnar trace at ``out_path``.

    Each worker writes its shard as a packed, ts-ordered
    ``<file>.shardNN`` row-group sibling
    (:func:`_write_columnar_shard_from_spec`: one row group in memory
    when the builder's column stream is ordered, the shard's columns
    when it is not) and returns only its count.  The parent merges the
    shard files on ``(ts, shard index, row index)``
    (:func:`repro.datasets.columnar.merge_columnar_shards`, one group
    per shard resident: a group's mapped pages go once the merge
    passes it) into one file in the canonical record order, removes
    them — also when a worker or the merge raises — and checks the
    merged count against the workers' counts.
    ``schema`` defaults to the spec's builder name; pass it explicitly
    for builders registered outside
    :data:`~repro.datasets.columnar.SCHEMAS` whose records use
    one of the standard schemas.  ``row_group_rows`` is the group size
    of the shard files and of the final file (``None``:
    :data:`repro.datasets.columnar.DEFAULT_ROW_GROUP_ROWS`); the output
    is byte-identical for any worker count.  Returns ``(record count,
    engine report)``.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    task = f"generate:{spec.builder}"
    paths = [shard_path(out, i) for i in range(spec.shard_count)]
    try:
        counts, report = run_sharded(
            _write_columnar_shard_from_spec,
            [(i,) for i in range(spec.shard_count)], workers=workers,
            task=task, count_of=int,
            shared=(spec, str(out), spec.builder if schema is None
                    else schema, row_group_rows))
        merge_start = time.perf_counter()
        tracer = _obs_trace.ACTIVE
        with (tracer.span("merge", task=task) if tracer is not None
              else nullcontext()):
            total = merge_columnar_shards(paths, out,
                                          row_group_rows=row_group_rows)
        emitter = _obs_live.ACTIVE
        if emitter is not None:
            emitter.beat("merge", task, records=total,
                         seconds=time.perf_counter() - merge_start)
    finally:
        for path in paths:
            path.unlink(missing_ok=True)
    if total != sum(counts):
        raise RuntimeError(f"shard merge wrote {total} records, workers "
                           f"reported {sum(counts)}")
    return total, report


def generate_jsonl(spec: ShardSpec, out_path: Union[str, Path],
                   workers: int = 1) -> Tuple[int, EngineReport]:
    """Generate ``spec`` to a JSONL trace at ``out_path``.

    The trace is :func:`generate_columnar`'s, rendered: the columnar
    pipeline writes a scratch ``<file>.col`` beside ``out_path`` and
    :func:`~repro.datasets.columnar.columnar_to_jsonl` turns it into
    the destination, so the bytes are those of ``generate --format
    columnar`` + ``convert --to jsonl`` and identical for any worker
    count.  The scratch file is removed however the call ends, and the
    destination is written atomically.  Returns ``(record count, engine
    report)``.
    """
    out = Path(out_path)
    scratch = out.with_name(out.name + ".col")
    try:
        count, report = generate_columnar(spec, scratch, workers=workers)
        tracer = _obs_trace.ACTIVE
        with (tracer.span("render", format="jsonl") if tracer is not None
              else nullcontext()):
            columnar_to_jsonl(scratch, out)
    finally:
        scratch.unlink(missing_ok=True)
    return count, report
