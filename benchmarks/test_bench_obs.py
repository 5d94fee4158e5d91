"""Observability overhead benchmarks: collection off vs on.

The design contract of ``repro.obs`` is that *disabled* collection is
free on the PR-2 fast paths (one module-global load per instrumented
call, and the batched replay loop contains none at all) and that
*enabled* metrics stay cheap because the replay path records per-shard
aggregates after the hot loop rather than per-record samples.  These
benchmarks measure all three modes over the same column replay and
write ``benchmarks/results/BENCH_obs.json`` via the ``obs_bench``
fixture; ``compare_bench.py`` picks the ``*_rps`` keys up automatically.

Scale with ``HOTPATH_BENCH_SCALE`` (default 1.0; CI smoke uses 0.1).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.cache_sim import replay_partial_columns
from repro.datasets.allnames import AllNamesBuilder
from repro.datasets.columnar import ColumnarStore, write_columnar_stream
from repro.engine.replay import replay_columnar_sharded
from repro.obs import observe
from repro.obs import live as obs_live
from repro.obs.live import LiveSink, SinkEmitter

SCALE = float(os.environ.get("HOTPATH_BENCH_SCALE", "1.0"))

#: Enabled-metrics throughput floor vs disabled (per-shard aggregate
#: recording must stay within timing noise of the bare loop).
METRICS_FLOOR = 0.8

#: Traced throughput floor: spans are per-record (capped per shard), so
#: the traced lane is allowed to be slower, but not catastrophically.
TRACED_FLOOR = 0.2

#: In-test live-heartbeat floor (loose; the CI gate applies the strict
#: <= 5% bound via ``compare_bench.py --check-obs-overhead``).
LIVE_FLOOR = 0.8


@pytest.fixture(scope="module")
def replay_trace(tmp_path_factory):
    """A one-group ``.col`` (mapped zero-copy) of the bench trace."""
    path = tmp_path_factory.mktemp("obs") / "allnames.col"
    write_columnar_stream(
        AllNamesBuilder(scale=0.25 * SCALE, seed=42).build().records, path,
        "allnames", row_group_rows=1 << 30)
    return path


def _time_replay(trace, shards=1):
    """The instrumented entry point: one shard is the whole trace."""
    start = time.perf_counter()
    result, _ = replay_columnar_sharded(trace, "allnames", shards=shards)
    return result, time.perf_counter() - start


@pytest.mark.hotpath
def test_obs_overhead_on_replay(obs_bench, replay_trace):
    """Disabled vs metrics-enabled vs traced throughput, same rows."""
    with ColumnarStore.open(replay_trace) as store:
        n = len(store)
        baseline = replay_partial_columns(store, "client_ip").result()

    disabled_result, disabled_seconds = _time_replay(replay_trace)
    with observe(metrics=True):
        metrics_result, metrics_seconds = _time_replay(replay_trace)
    with observe(metrics=True, tracing=True):
        traced_result, traced_seconds = _time_replay(replay_trace)

    # Collection never changes results: all three modes are
    # counter-identical to the bare column replay.
    assert disabled_result == baseline
    assert metrics_result == baseline
    assert traced_result == baseline

    disabled_rps = n / disabled_seconds
    metrics_rps = n / metrics_seconds
    traced_rps = n / traced_seconds
    obs_bench["replay_allnames_obs"] = {
        "records": n,
        "disabled_rps": round(disabled_rps, 1),
        "metrics_rps": round(metrics_rps, 1),
        "traced_rps": round(traced_rps, 1),
        "metrics_ratio": round(metrics_rps / disabled_rps, 3),
        "traced_ratio": round(traced_rps / disabled_rps, 3),
    }
    assert metrics_rps >= METRICS_FLOOR * disabled_rps
    assert traced_rps >= TRACED_FLOOR * disabled_rps


@pytest.mark.hotpath
def test_live_heartbeat_overhead(obs_bench, replay_trace):
    """Sharded replay throughput with the heartbeat plane off vs on.

    Heartbeats fire at shard boundaries (run/dispatch/shard events),
    never per record, so an active :class:`LiveSink` must cost a small
    constant per shard.  Best-of-3 per mode, interleaved, to keep the
    ratio out of scheduler noise; the CI ``obs-live`` job holds the
    written ``live_on_rps``/``live_off_rps`` pair to a <= 5% overhead
    bound via ``compare_bench.py --check-obs-overhead``.
    """
    shards = 8

    def timed():
        return _time_replay(replay_trace, shards)

    off_result = on_result = None
    off_seconds = on_seconds = float("inf")
    sink = None
    for _ in range(3):
        off_result, seconds = timed()
        off_seconds = min(off_seconds, seconds)
        sink = LiveSink()
        previous = obs_live.swap(SinkEmitter(sink))
        try:
            on_result, seconds = timed()
        finally:
            obs_live.swap(previous)
            sink.close()
        on_seconds = min(on_seconds, seconds)

    # The live plane never touches results, and every shard's lifecycle
    # beats arrived (run_start + per-shard start/end + run_end).
    assert on_result == off_result
    assert sink is not None and sink.heartbeats >= 2 * shards + 2

    with ColumnarStore.open(replay_trace) as store:
        n = len(store)
    off_rps = n / off_seconds
    on_rps = n / on_seconds
    obs_bench["replay_allnames_live"] = {
        "records": n,
        "shards": shards,
        "heartbeats": sink.heartbeats,
        "live_off_rps": round(off_rps, 1),
        "live_on_rps": round(on_rps, 1),
        "live_ratio": round(on_rps / off_rps, 3),
    }
    assert on_rps >= LIVE_FLOOR * off_rps
