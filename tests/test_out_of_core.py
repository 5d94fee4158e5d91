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
import sys
import tracemalloc
import weakref
from pathlib import Path
from typing import Any, Callable, Tuple

import pytest

from repro.analysis.cache_sim import client_sweep
from repro.core.cache import ScopeTracker
from repro.datasets.columnar import (ColumnarStore, RowGroupReader,
                                     convert_columnar, is_columnar,
                                     prebucket_columnar, read_columnar,
                                     write_columnar_stream)
from repro.engine import (ShardSpec, client_sweep_sharded, generate_columnar,
                          generate_jsonl, partition_by_key,
                          replay_columnar_sharded, replay_jsonl_sharded)
from repro.engine.replay import _HELD, KeyedTrace
from repro.obs import observe

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
    assert prebucket_columnar(flat, bucketed, SHARDS,
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


def test_traced_row_range_replay_stays_group_bounded(tmp_path, monkeypatch):
    """``--trace-out`` must not turn the out-of-core path in-core: a traced
    row-range replay feeds the kernel group by group, so over the untraced
    peak it may cost the capped spans — and nothing that scales with rows."""
    cap, total_queries = 200, 40_000
    monkeypatch.setattr("repro.engine.replay.TRACED_RECORDS_PER_SHARD", cap)
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=total_queries, **FIXED_UNIVERSE)
    flat = tmp_path / "flat.col"
    generate_columnar(spec, flat, workers=1, row_group_rows=GROUP_ROWS)
    bucketed = tmp_path / "bucketed.col"
    prebucket_columnar(flat, bucketed, SHARDS, row_group_rows=GROUP_ROWS)

    def replay():
        return replay_columnar_sharded(bucketed, "allnames", shards=SHARDS,
                                       workers=1)[0]

    def traced_replay():
        with observe(tracing=True) as session:
            result = replay()
        return result, sum(s.name == "replay.query"
                           for s in session.tracer.spans)

    plain, peak_plain = peak_alloc_of(replay)
    (traced, spans), peak_traced = peak_alloc_of(traced_replay)
    assert traced == plain
    assert spans == cap * SHARDS
    # ~0.5 KiB per stored span, so 1 KiB each is generous; one record
    # object per row of a shard (what tracing used to build) is ~2.5 MiB.
    assert peak_traced < peak_plain + spans * 1024, \
        f"tracing added {(peak_traced - peak_plain) >> 10} KiB of heap " \
        f"for {spans} spans over {total_queries} rows"


def test_traced_jsonl_replay_costs_spans_not_rows(tmp_path, monkeypatch):
    """The JSONL lane under ``--trace-out``: a shard's lines become columns
    once and the kernel reads those, traced or not, so over the untraced
    peak tracing may cost the capped spans — and no object per row
    (12,000 records would be some 2 MiB)."""
    cap, total_queries = 100, 12_000
    monkeypatch.setattr("repro.engine.replay.TRACED_RECORDS_PER_SHARD", cap)
    spec = ShardSpec.create("allnames", shard_count=SHARDS,
                            total_queries=total_queries, **FIXED_UNIVERSE)
    trace = tmp_path / "trace.jsonl"
    generate_jsonl(spec, trace, workers=1)

    def replay():
        return replay_jsonl_sharded(trace, "allnames", shards=SHARDS,
                                    workers=1)[0]

    def traced_replay():
        with observe(tracing=True) as session:
            result = replay()
        return result, sum(s.name == "replay.query"
                           for s in session.tracer.spans)

    plain, peak_plain = peak_alloc_of(replay)
    (traced, spans), peak_traced = peak_alloc_of(traced_replay)
    assert traced == plain
    assert spans == cap * SHARDS
    assert peak_traced < peak_plain + spans * 1024, \
        f"tracing added {(peak_traced - peak_plain) >> 10} KiB of heap " \
        f"for {spans} spans over {total_queries} rows"


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
    assert is_columnar(flat)
    bucketed = tmp_path / "bucketed.col"
    prebucket_columnar(flat, bucketed, SHARDS, row_group_rows=GROUP_ROWS)
    reference, _ = replay_columnar_sharded(flat, "allnames",
                                           shards=SHARDS, workers=1)
    ranged, _ = replay_columnar_sharded(bucketed, "allnames",
                                        shards=SHARDS, workers=1)
    assert ranged == reference
    # And the trace holds exactly the records the builder assembles
    # in memory, whatever the group budget.
    builder = spec.make_builder()
    records = list(builder.assemble(
        [builder.build_shard(i, SHARDS) for i in range(SHARDS)]).records)
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
    prebucket_columnar(flat, bucketed, 8, row_group_rows=GROUP_ROWS)
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
    return flat, read_columnar(flat), spec.make_builder().assemble(
        []).client_ips


@pytest.fixture(scope="module")
def regrouped(small_trace, tmp_path_factory):
    """``row_group_rows -> the small trace rewritten in such groups``."""
    out = tmp_path_factory.mktemp("regrouped")
    paths = {}
    for rows in (1, 7, 256):
        paths[rows] = out / f"g{rows}.col"
        convert_columnar(small_trace[0], paths[rows], row_group_rows=rows)
    return paths


def _span_oracle(records, shards, budget):
    """Per qname bucket, ``(ts, qname, client, ecs hit, plain hit)`` of
    its first ``budget`` rows, by ``ScopeTracker``."""
    expected = []
    for bucket in partition_by_key(records, shards, lambda r: r.qname):
        ecs, plain = ScopeTracker(use_ecs=True), ScopeTracker(False)
        expected.append([
            (r.ts, r.qname, r.client_ip,
             ecs.access(r.ts, r.qname, r.qtype, r.client_ip, r.scope, r.ttl),
             plain.access(r.ts, r.qname, r.qtype, None, 0, r.ttl))
            for r in bucket[:budget]])
    return expected


@pytest.mark.parametrize("shards", (1, 3, 8))
@pytest.mark.parametrize("row_group_rows", (1, 7, 256))
def test_trace_replay_equals_the_oracle(row_group_rows, shards, small_trace,
                                        regrouped, oracle_replay,
                                        monkeypatch):
    """Whatever the groups, a multi-group file replays as the oracle over
    its records, qname bucket by qname bucket; traced, the counters hold
    and each span's verdicts are the oracle's, its attributes read from
    the group that holds the row."""
    _, records, _ = small_trace
    path = regrouped[row_group_rows]
    want = oracle_replay(records, "allnames", shards)
    assert replay_columnar_sharded(path, "allnames", shards=shards,
                                   workers=1)[0] == want
    monkeypatch.setattr("repro.engine.replay.TRACED_RECORDS_PER_SHARD", 40)
    with observe(tracing=True) as session:
        assert replay_columnar_sharded(path, "allnames", shards=shards,
                                       workers=1)[0] == want
    for shard, rows in enumerate(_span_oracle(records, shards, 40)):
        spans = [s.attrs for s in session.tracer.spans
                 if s.name == "replay.query"
                 and s.span_id.startswith(f"s{shard}-")]
        assert [(a["ts"], a["qname"], a["client"], a["ecs_hit"],
                 a["plain_hit"]) for a in spans] == rows, shard


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
    prebucket_columnar(small_trace[0], bucketed, SHARDS,
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
    """What the slot keeps after a replay: ts, ttl and a key id (20 bytes
    a row) and one qname-bucket table (4), beyond the distinct-key tables
    and the open file's header — no copy of the file's columns."""
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
    names, plain_of = trace._plain_names, trace._plain_of
    distinct = (sys.getsizeof(names) + sys.getsizeof(plain_of)
                + sum(map(sys.getsizeof, set(names)))
                + sum(map(sys.getsizeof, plain_of)))
    assert retained - header - distinct <= 28 * trace.rows, \
        f"{(retained - header - distinct) / trace.rows:.1f} B a row"


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
