"""Observability overhead benchmarks: collection off vs on.

The design contract of ``repro.obs`` is that *disabled* collection is
free on the fast paths (one module-global load per instrumented call,
and the batched replay loop contains none at all) and that *enabled*
metrics and tracing stay cheap because the replay path records
per-shard aggregates after the hot loop rather than per-record samples.
These benchmarks time each mode over the same column replay, print the
rates through ``save_report`` and hold each ratio to its floor below.

Scale with ``HOTPATH_BENCH_SCALE`` (default 1.0; CI uses 0.1).
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.analysis.cache_sim import KeyedTrace, replay_partial_columns
from repro.datasets.allnames import AllNamesBuilder
from repro.datasets.columnar import (ColumnarStore, RowGroupReader,
                                     write_columnar_stream)
from repro.engine.replay import replay_columnar_sharded
from repro.obs import observe
from repro.obs import live as obs_live
from repro.obs.live import LiveSink

from bench_timing import alternating_rounds, median_ratio

SCALE = float(os.environ.get("HOTPATH_BENCH_SCALE", "1.0"))

#: Enabled-metrics and traced throughput floor vs disabled: both
#: record one per-shard aggregate after the hot loop (a traced shard is
#: one span), so each must stay within timing noise of the bare loop.
METRICS_FLOOR = 0.8

#: Live-heartbeat floor: the heartbeat plane costs at most 5% throughput.
LIVE_FLOOR = 0.95
#: Off/on rounds whose median ratio is held to ``LIVE_FLOOR``.
LIVE_ROUNDS = 31
#: Disabled/metrics/traced rounds whose median ratios are held to
#: ``METRICS_FLOOR``.
OBS_ROUNDS = 15


@pytest.fixture(scope="module")
def replay_trace(tmp_path_factory):
    """A one-group ``.col`` (mapped zero-copy) of the bench trace."""
    path = tmp_path_factory.mktemp("obs") / "allnames.col"
    write_columnar_stream(
        AllNamesBuilder(scale=0.25 * SCALE, seed=42).build().records, path,
        "allnames", row_group_rows=1 << 30)
    return path


def _replay(trace, shards=1):
    """The instrumented entry point: one shard is the whole trace."""
    return replay_columnar_sharded(trace, "allnames", shards=shards)[0]


def _observed(trace, **flags):
    with observe(**flags):
        return _replay(trace)


@pytest.mark.hotpath
def test_obs_overhead_on_replay(save_report, replay_trace):
    """Disabled vs metrics-enabled vs traced throughput, same rows."""
    with RowGroupReader(replay_trace) as reader:
        trace = KeyedTrace(reader.walk(), reader.rows, "client_ip")
    n = trace.rows
    baseline = replay_partial_columns(trace).result()

    # Untimed: the first call opens the trace and builds the bucket
    # table and key ids, which every later call reuses.
    _replay(replay_trace)
    results, times = alternating_rounds({
        "disabled": lambda: _replay(replay_trace),
        "metrics": lambda: _observed(replay_trace, metrics=True),
        "traced": lambda: _observed(replay_trace, metrics=True,
                                    tracing=True),
    }, OBS_ROUNDS)

    # Collection never changes results: all three modes are
    # counter-identical to the bare column replay.
    assert all(result == baseline for result in results.values())

    metrics_ratio = median_ratio(times, "disabled", "metrics")
    traced_ratio = median_ratio(times, "disabled", "traced")
    seconds = {mode: statistics.median(times[mode]) for mode in times}
    save_report("obs_overhead_on_replay", (
        f"replay allnames, {n} rows, median of {OBS_ROUNDS} alternating "
        f"rounds: "
        + ", ".join(f"{mode} {n / s:,.0f} rec/s"
                    for mode, s in seconds.items())
        + f"\nmetrics/disabled = {metrics_ratio:.3f} "
        f"(bar >= {METRICS_FLOOR})\ntraced/disabled = {traced_ratio:.3f} "
        f"(bar >= {METRICS_FLOOR})"))
    assert metrics_ratio >= METRICS_FLOOR
    assert traced_ratio >= METRICS_FLOOR


@pytest.mark.hotpath
def test_live_heartbeat_overhead(save_report, replay_trace):
    """Sharded replay throughput with the heartbeat plane off vs on.

    Heartbeats fire at shard boundaries (run/dispatch/shard events),
    never per record, so an active :class:`LiveSink` must cost a small
    constant per shard.
    """
    shards = 8
    sinks = []

    def live_on():
        sink = LiveSink()
        sinks[:] = [sink]  # the last run's; older ones would grow the heap
        previous = obs_live.swap(sink.emitter())
        try:
            return _replay(replay_trace, shards)
        finally:
            obs_live.swap(previous)
            sink.close()

    # A run's beats cost well under a millisecond, inside one run's
    # timing noise, so the estimate is the median of alternating rounds'
    # ratios: a best-of over three runs read that noise, of either sign.
    results, times = alternating_rounds({
        "off": lambda: _replay(replay_trace, shards),
        "on": live_on,
    }, LIVE_ROUNDS)

    # The live plane never touches results, and every shard's lifecycle
    # beats arrived (run_start + per-shard start/end + run_end).
    assert results["on"] == results["off"]
    beats = sinks[-1].run_status()["heartbeats"]["received"]
    assert beats >= 2 * shards + 2

    with ColumnarStore.open(replay_trace) as store:
        n = len(store)
    live_ratio = median_ratio(times, "off", "on")
    seconds = {mode: statistics.median(times[mode]) for mode in times}
    save_report("obs_live_heartbeat_overhead", (
        f"replay allnames, {n} rows, {shards} shards, median of "
        f"{LIVE_ROUNDS} alternating rounds: "
        f"live off {n / seconds['off']:,.0f} rec/s, "
        f"live on {n / seconds['on']:,.0f} rec/s "
        f"({beats} heartbeats)\n"
        f"live-on/live-off = {live_ratio:.3f} (bar >= {LIVE_FLOOR})"))
    assert live_ratio >= LIVE_FLOOR
