"""Engine throughput benchmark: the pool must make ``--workers 4`` win.

Measures the sharded generate and replay paths at workers=1 and
workers=4 on a persistent pool, asserts the determinism contract holds
at bench scale, prints both runs' reports through ``save_report`` and
holds ``workers4/workers1`` throughput to ``MIN_SPEEDUP``.

The machine-independent evidence is the payload bytes per shard the
generate report prints: spec dispatch ships index-sized blobs, never
rows, on any host (a JSONL replay ships its trace lines by design).
"""

from __future__ import annotations

import os

import pytest

from repro.engine import (ShardSpec, WorkerPool, generate_columnar,
                          generate_jsonl)
from repro.engine.replay import replay_jsonl_sharded
from repro.engine.sharding import DEFAULT_SHARDS

WORKER_COUNTS = (1, 4)
CPU_COUNT = os.cpu_count() or 1

#: The ``workers4/workers1`` throughput bar.  Parallel speedup needs
#: parallel hardware: below 4 CPUs, four workers are scheduling overhead
#: and the bar falls to a no-pessimization floor (shipping rows instead
#: of specs measured ~0.2x on four cores).
MIN_SPEEDUP = 1.5 if CPU_COUNT >= 4 else 0.15

GENERATE_SPEC = ShardSpec.create("allnames", shard_count=DEFAULT_SHARDS,
                                 scale=0.5, seed=42)
REPLAY_SPEC = ShardSpec.create("public-cdn", shard_count=DEFAULT_SHARDS,
                               scale=0.01, seed=42, duration_s=1800.0)


def _assert_speedup(save_report, name: str, reports) -> None:
    speedup = (reports[4].records_per_second
               / reports[1].records_per_second)
    save_report(name, "\n\n".join(
        [reports[w].report() for w in WORKER_COUNTS]
        + [f"payload bytes per shard at workers=4: "
           f"{reports[4].payload_bytes_per_shard:,.1f}\n"
           f"workers4/workers1 = {speedup:.2f}x "
           f"(bar >= {MIN_SPEEDUP}x at cpu_count={CPU_COUNT})"]))
    assert speedup >= MIN_SPEEDUP


@pytest.mark.engine
def test_engine_generate_throughput(save_report, tmp_path):
    """What ``repro-ecs generate --format columnar`` runs, merge included."""
    traces = {}
    reports = {}
    for workers in WORKER_COUNTS:
        traces[workers] = tmp_path / f"allnames-w{workers}.col"
        with WorkerPool(workers):
            _, reports[workers] = generate_columnar(
                GENERATE_SPEC, traces[workers], workers=workers)
    # The determinism contract, at bench scale.
    assert traces[1].read_bytes() == traces[4].read_bytes()
    assert reports[4].header_bytes > 0  # it ran pooled
    _assert_speedup(save_report, "engine_generate_throughput", reports)


@pytest.mark.engine
def test_engine_replay_throughput(save_report, tmp_path):
    trace = tmp_path / "public-cdn.jsonl"
    generate_jsonl(REPLAY_SPEC, trace, workers=1)
    results = {}
    reports = {}
    for workers in WORKER_COUNTS:
        with WorkerPool(workers):
            results[workers], reports[workers] = replay_jsonl_sharded(
                trace, "public-cdn", shards=DEFAULT_SHARDS, workers=workers)
    assert results[1] == results[4]
    assert results[1].blowup >= 1.0
    _assert_speedup(save_report, "engine_replay_throughput", reports)
