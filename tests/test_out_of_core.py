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

import gc
import tracemalloc
from typing import Any, Callable, Tuple

import pytest

from repro.datasets.columnar import (is_columnar, prebucket_columnar,
                                     read_columnar)
from repro.engine import (ShardSpec, generate_columnar, generate_jsonl,
                          replay_columnar_sharded, replay_jsonl_sharded)
from repro.engine.replay import _opened
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
    charged to ``fn``, and clears the replay-side reader cache so no
    measurement pays for (or hides behind) a predecessor's mmap
    bookkeeping.
    """
    _opened.cache_clear()
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
        return result, len(session.tracer.spans)

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
        return result, len(session.tracer.spans)

    plain, peak_plain = peak_alloc_of(replay)
    (traced, spans), peak_traced = peak_alloc_of(traced_replay)
    assert traced == plain
    assert spans == cap * SHARDS
    assert peak_traced < peak_plain + spans * 1024, \
        f"tracing added {(peak_traced - peak_plain) >> 10} KiB of heap " \
        f"for {spans} spans over {total_queries} rows"


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
