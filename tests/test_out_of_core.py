"""Bounded-memory harness: generate → merge → replay never holds a trace.

The out-of-core contract of the row-group layout is that peak *Python
heap* allocation is a function of ``row_group_rows`` (plus fixed model
state), not of trace length: workers buffer one group, the k-way merge
holds one group per shard, pre-bucketing holds one group per bucket,
and ranged replay streams one group at a time.

``tracemalloc`` is the right meter here — it sees exactly the
allocations that must stay bounded and ignores mmap'd file pages,
which are the OS page cache's business and intentionally scale with
the file.  The harness runs the same pipeline at two trace lengths
(5× apart) over a *fixed* string universe (hostnames/subnets pinned,
only ``total_queries`` grows — the replay caches key on distinct
strings, so their footprint is size-invariant by construction) and
asserts the peak grows sublinearly.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import re
import tracemalloc
import weakref
from pathlib import Path
from typing import Any, Callable, Tuple

import pytest

from repro.analysis.cache_sim import (client_sweep, merge_partials,
                                      replay_partial)
from repro.datasets.columnar import (ColumnarStore, RowGroupReader,
                                     convert_columnar, trace_format,
                                     write_columnar_stream)
from repro.engine import (ShardSpec, client_sweep_sharded, generate_columnar,
                          generate_jsonl, partition_by_key,
                          replay_columnar_sharded, replay_jsonl_sharded)
from repro.engine.replay import _HELD, ACCESSORS, KeyedTrace
from repro.obs import observe

from builder_reference import merged_records
from jsonl_reference import read_columnar

SHARDS = 4
GROUP_ROWS = 256

#: Builder kwargs with the string universe pinned: hostnames, subnets
#: and therefore dictionaries / replay caches are identical at every
#: trace length.  Only ``total_queries`` may vary between sizes.
FIXED_UNIVERSE = dict(scale=1.0, seed=3, duration_s=600.0,
                      hostname_count=60, v4_subnet_count=24,
                      v6_subnet_count=8)


def peak_alloc_of(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``fn`` and return ``(result, peak_heap_bytes)``.

    Collects first so leftover garbage from earlier tests is not
    charged to ``fn``, and clears the replay-side trace slot so no
    measurement pays for (or hides behind) a predecessor's trace or
    mmap bookkeeping.
    """
    _HELD.clear()
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _pipeline(tmp_path, total_queries: int):
    """The full out-of-core path: generate v2 → pre-bucket → replay."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=total_queries, **FIXED_UNIVERSE)
    flat = tmp_path / f"t{total_queries}.col"
    count, _ = generate_columnar(spec, flat, workers=1,
                                 row_group_rows=GROUP_ROWS)
    bucketed = tmp_path / f"b{total_queries}.col"
    assert convert_columnar(flat, bucketed, buckets=SHARDS,
                            row_group_rows=GROUP_ROWS) == count
    result, _ = replay_columnar_sharded(bucketed, "allnames",
                                        shards=SHARDS, workers=1)
    return count, result


def test_peak_heap_is_sublinear_in_trace_length(tmp_path):
    """5× the rows must cost far less than 5× (indeed < 2×) the heap."""
    small, large = 3_000, 15_000
    (count_small, replay_small), peak_small = \
        peak_alloc_of(lambda: _pipeline(tmp_path, small))
    (count_large, replay_large), peak_large = \
        peak_alloc_of(lambda: _pipeline(tmp_path, large))
    assert count_small == small and count_large == large
    assert replay_small.max_size_ecs > 0
    assert replay_large.max_size_ecs > 0
    # The bound: fixed model state + group-sized buffers.  Allow 2× for
    # allocator noise and the O(groups) file header — anything near the
    # 5× data ratio means a stage materialized the trace.
    assert peak_large < 2 * peak_small + (1 << 20), \
        f"peak heap grew {peak_large / peak_small:.1f}x for 5x the rows " \
        f"({peak_small >> 10} KiB -> {peak_large >> 10} KiB)"


@pytest.fixture(scope="module")
def traced_inputs(tmp_path_factory):
    """One 12,000-row allnames trace as JSONL, as a flat ``.col`` and
    pre-bucketed for :data:`SHARDS`."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=12_000, **FIXED_UNIVERSE)
    out = tmp_path_factory.mktemp("traced")
    paths = {"jsonl": out / "trace.jsonl", "flat": out / "flat.col",
             "bucketed": out / "bucketed.col"}
    generate_jsonl(spec, paths["jsonl"], workers=1)
    generate_columnar(spec, paths["flat"], workers=1,
                      row_group_rows=GROUP_ROWS)
    convert_columnar(paths["flat"], paths["bucketed"], buckets=SHARDS,
                     row_group_rows=GROUP_ROWS)
    return paths


@pytest.mark.parametrize("form", ("jsonl", "flat", "bucketed"))
def test_traced_replay_is_the_untraced_replay(form, traced_inputs,
                                              replay_spans):
    """``--trace-out`` replays through the untraced adapter: at workers 1
    and 2 the result is the untraced one, each shard is one ``replay``
    span whose counters sum to the merged result, and over the untraced
    peak heap tracing costs those spans — never an object per row, nor
    (pre-bucketed) the out-of-core path turned in-core."""
    path = traced_inputs[form]
    replay = replay_jsonl_sharded if form == "jsonl" \
        else replay_columnar_sharded
    for workers in (1, 2):
        def untraced():
            return replay(path, "allnames", shards=SHARDS,
                          workers=workers)

        def traced():
            with observe(tracing=True) as session:
                return untraced(), session.tracer.spans

        (plain, report), peak_plain = peak_alloc_of(untraced)
        ((result, _), spans), peak_traced = peak_alloc_of(traced)
        assert result == plain, workers
        shards = replay_spans(spans)
        assert len(shards) == SHARDS
        assert merge_partials(shards) == plain
        assert sum(span.attrs["rows"] for span in spans
                   if span.name == "replay") == report.total_records
        # A stored span is ~0.5 KiB and the session's own objects under 16;
        # one record object per row is ~2 MiB.
        assert peak_traced < peak_plain + len(spans) * 1024 + (16 << 10), \
            f"tracing added {(peak_traced - peak_plain) >> 10} KiB of " \
            f"heap for {len(spans)} spans at workers={workers}"


def test_jsonl_replay_heap_does_not_hold_the_trace(tmp_path):
    """The JSONL lane routes lines to spill files and each shard parses
    its own: at ``workers=1`` the heap holds one batch of lines and one
    shard's columns, so 45,000 more rows may add under 16 bytes each
    (holding every routed line costs some 180)."""
    shards, small, large = 8, 15_000, 60_000
    peaks = []
    for total_queries in (small, large):
        spec = ShardSpec.create("allnames", shard_count=SHARDS,
                                total_queries=total_queries,
                                **FIXED_UNIVERSE)
        trace = tmp_path / f"t{total_queries}.jsonl"
        generate_jsonl(spec, trace, workers=1)
        (_, report), peak = peak_alloc_of(
            lambda: replay_jsonl_sharded(trace, "allnames", shards=shards,
                                         workers=1))
        assert report.total_records == total_queries
        peaks.append(peak)
    per_row = (peaks[1] - peaks[0]) / (large - small)
    assert per_row < 16, \
        f"{per_row:.1f} B a row ({peaks[0] >> 10} KiB -> {peaks[1] >> 10} KiB)"


def test_pipeline_output_matches_in_memory_reference(tmp_path):
    """The bounded pipeline is not just bounded — it is also *right*."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=3_000, **FIXED_UNIVERSE)
    flat = tmp_path / "flat.col"
    generate_columnar(spec, flat, workers=1, row_group_rows=GROUP_ROWS)
    assert trace_format(flat) == "columnar"
    bucketed = tmp_path / "bucketed.col"
    convert_columnar(flat, bucketed, buckets=SHARDS,
                     row_group_rows=GROUP_ROWS)
    reference, _ = replay_columnar_sharded(flat, "allnames",
                                           shards=SHARDS, workers=1)
    ranged, _ = replay_columnar_sharded(bucketed, "allnames",
                                        shards=SHARDS, workers=1)
    assert ranged == reference
    # And the trace holds exactly the reference records, merged in
    # memory, whatever the group budget.
    records = list(merged_records(spec))
    assert read_columnar(flat) == records
    default = tmp_path / "default.col"
    generate_columnar(spec, default, workers=1)
    assert read_columnar(default) == records


def test_prebucketed_replay_rejects_wrong_shard_count(tmp_path):
    """A pre-bucketed file silently mis-replayed would skew TTL
    timelines (bucket unions concatenate, not interleave) — so a
    shard-count mismatch must refuse, loudly and actionably."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=1_000, **FIXED_UNIVERSE)
    flat = tmp_path / "flat.col"
    generate_columnar(spec, flat, workers=1, row_group_rows=GROUP_ROWS)
    bucketed = tmp_path / "bucketed.col"
    convert_columnar(flat, bucketed, buckets=8, row_group_rows=GROUP_ROWS)
    with pytest.raises(ValueError, match="pre-bucketed for 8 shards"):
        replay_columnar_sharded(bucketed, "allnames", shards=4, workers=1)
    # The matching count replays fine.
    result, _ = replay_columnar_sharded(bucketed, "allnames", shards=8,
                                        workers=1)
    reference, _ = replay_columnar_sharded(flat, "allnames", shards=8,
                                           workers=1)
    assert result == reference


# ---------------------------------------------------------------------------
# The per-process trace: a .col file held once, as the kernel's columns


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A 600-row allnames trace over the pinned universe, as one flat
    file, its records and its builder's client list."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=600, **FIXED_UNIVERSE)
    flat = tmp_path_factory.mktemp("trace") / "flat.col"
    generate_columnar(spec, flat, workers=1)
    return flat, read_columnar(flat), spec.make_builder().client_ips()


@pytest.fixture(scope="module")
def regrouped(small_trace, tmp_path_factory):
    """``row_group_rows -> the small trace rewritten in such groups``."""
    out = tmp_path_factory.mktemp("regrouped")
    paths = {}
    for rows in (1, 7, 256):
        paths[rows] = out / f"g{rows}.col"
        convert_columnar(small_trace[0], paths[rows], row_group_rows=rows)
    return paths


@pytest.mark.parametrize("shards", (1, 3, 8))
@pytest.mark.parametrize("row_group_rows", (1, 7, 256))
def test_trace_replay_equals_the_oracle(row_group_rows, shards, small_trace,
                                        regrouped, oracle_replay,
                                        replay_spans):
    """Whatever the groups, a multi-group file replays as the oracle over
    its records, qname bucket by qname bucket; traced, the counters hold
    and each shard's ``replay`` span records the oracle's partial of its
    bucket."""
    _, records, _ = small_trace
    path = regrouped[row_group_rows]
    want = oracle_replay(records, "allnames", shards)
    assert replay_columnar_sharded(path, "allnames", shards=shards,
                                   workers=1)[0] == want
    with observe(tracing=True) as session:
        assert replay_columnar_sharded(path, "allnames", shards=shards,
                                       workers=1)[0] == want
    assert replay_spans(session.tracer.spans) == [
        replay_partial(bucket, *ACCESSORS["allnames"])
        for bucket in partition_by_key(records, shards, lambda r: r.qname)]


@pytest.mark.parametrize("row_group_rows", (7, 256))
def test_trace_client_sweep_equals_in_process(row_group_rows, small_trace,
                                              regrouped):
    _, records, clients = small_trace
    want = client_sweep(ColumnarStore.from_records(records, "allnames"),
                        clients, fractions=(0.25, 1.0), seeds=(1, 2))
    got, _ = client_sweep_sharded(regrouped[row_group_rows], clients,
                                  fractions=(0.25, 1.0), seeds=(1, 2))
    assert got == want


def test_a_trace_replaced_in_place_is_read_afresh(small_trace, tmp_path,
                                                  oracle_replay):
    """A file swapped for another of equal size under the old mtime is a
    different file: the held trace is keyed by device and inode too."""
    _, records, _ = small_trace
    doubled = [dataclasses.replace(r, ttl=2 * r.ttl) for r in records]
    path, other = tmp_path / "t.col", tmp_path / "u.col"
    write_columnar_stream(records, path, "allnames", GROUP_ROWS)
    write_columnar_stream(doubled, other, "allnames", GROUP_ROWS)
    before = os.stat(path)
    assert os.stat(other).st_size == before.st_size
    first = replay_columnar_sharded(path, "allnames", shards=SHARDS)[0]
    assert first == oracle_replay(records, "allnames", SHARDS)
    os.replace(other, path)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns
    want = oracle_replay(doubled, "allnames", SHARDS)
    assert want != first
    assert replay_columnar_sharded(path, "allnames",
                                   shards=SHARDS)[0] == want


def test_opening_another_file_releases_the_held_one(small_trace, regrouped,
                                                    tmp_path):
    """One slot a process: a replay of file B leaves file A's trace
    unreachable, and a pre-bucketed file's reader takes the same slot."""
    bucketed = tmp_path / "bucketed.col"
    convert_columnar(small_trace[0], bucketed, buckets=SHARDS,
                     row_group_rows=GROUP_ROWS)
    replay_columnar_sharded(regrouped[7], "allnames", shards=SHARDS)
    assert isinstance(_HELD.value, KeyedTrace)
    held = weakref.ref(_HELD.value)
    replay_columnar_sharded(regrouped[256], "allnames", shards=SHARDS)
    assert held() is None
    replay_columnar_sharded(bucketed, "allnames", shards=SHARDS)
    assert isinstance(_HELD.value, RowGroupReader)
    held = weakref.ref(_HELD.value)
    replay_columnar_sharded(regrouped[7], "allnames", shards=SHARDS)
    assert held() is None
    _HELD.clear()
    assert _HELD.value is None


def test_a_cached_trace_retains_28_bytes_a_row(tmp_path):
    """What the slot keeps after a replay: ts, ttl and two key ids, ECS
    and plain (24 bytes a row), held bucket-major, each column sized
    exactly, beyond the open file's header — no copy of the file's
    columns and no table per distinct key."""
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=10_000, **FIXED_UNIVERSE)
    path = tmp_path / "t.col"
    generate_columnar(spec, path, workers=1, row_group_rows=GROUP_ROWS)
    _HELD.clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with RowGroupReader(path):
            header = tracemalloc.get_traced_memory()[0] - base
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        replay_columnar_sharded(path, "allnames", shards=SHARDS, workers=1)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    trace = _HELD.value
    assert retained - header <= 28 * trace.rows, \
        f"{(retained - header) / trace.rows:.1f} B a row"


def _resident_kib(path: Path) -> int:
    """Resident KiB of this process's mappings of ``path``."""
    total, inside = 0, False
    name = str(path.resolve())
    for line in Path("/proc/self/smaps").read_text().splitlines():
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
            inside = line.endswith(" " + name)
        elif inside and line.startswith("Rss:"):
            total += int(line.split()[1])
    return total


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                    reason="reads the resident set from /proc/self/smaps")
def test_walking_a_file_keeps_one_group_resident(tmp_path):
    """``RowGroupReader.walk`` releases the pages read so far before it
    reads the next group, so the file's resident share never exceeds one
    group plus the kernel's fault-around (a fault maps the aligned 64 KiB
    around it, by default), and nothing of it stays resident once the
    walk is done."""
    rows, group_rows = 32_000, 8192
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=rows, **FIXED_UNIVERSE)
    path = tmp_path / "t.col"
    generate_columnar(spec, path, workers=1, row_group_rows=group_rows)
    with RowGroupReader(path) as reader:
        names = reader.schema.field_names
        group_kib = max(
            sum(length for col in reader.group_entry(i)["columns"]
                for _, length in (col["data"], col["dict"] or (0, 0)))
            for i in range(reader.group_count)) / 1024
        peak = 0
        for store in reader.walk():
            for name in names:
                bytes(store.column(name))
            peak = max(peak, _resident_kib(path))
        assert 0 < peak <= group_kib + 2 * 64 + 8 < 2 * group_kib
        assert _resident_kib(path) <= 8
        stores = [reader.group(i) for i in range(reader.group_count)]
        for store in stores:
            for name in names:
                bytes(store.column(name))
        assert _resident_kib(path) >= rows * 32 / 1024
