"""Engine throughput benchmark: the pool must make ``--workers 4`` win.

Measures the sharded generate and replay paths at workers=1 and
workers=4 on a persistent pool, asserts the determinism contract holds
at bench scale, and records per-worker-count samples — throughput,
serialized bytes per shard, host CPU count and the 4v1 speedup — into
``benchmarks/results/BENCH_engine.json`` via the ``engine_bench``
fixture.  ``compare_bench.py --check-speedup`` gates on those samples:
on hosts with >= 4 CPUs the replay path must clear ``workers4/workers1
>= 1.5``; on smaller hosts the gate degrades to a no-pessimization
floor, because a 1-core container cannot demonstrate parallel speedup
no matter how cheap dispatch is.

The machine-independent evidence lives in ``*_payload_bytes_per_shard``:
spec dispatch ships index-sized blobs, never rows, on any host.
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

GENERATE_SPEC = ShardSpec.create("allnames", shard_count=DEFAULT_SHARDS,
                                 scale=0.5, seed=42)
REPLAY_SPEC = ShardSpec.create("public-cdn", shard_count=DEFAULT_SHARDS,
                               scale=0.01, seed=42, duration_s=1800.0)


def _record(engine_bench, name: str, report) -> None:
    engine_bench[name] = {
        "records": report.total_records,
        "seconds": round(report.wall_seconds, 4),
        "records_per_second": round(report.records_per_second, 1),
        "shards": len(report.shards),
        "workers": report.workers,
        "pool_mode": report.pool_mode,
        "cpu_count": CPU_COUNT,
        "header_bytes": report.header_bytes,
        "payload_bytes_per_shard": round(report.payload_bytes_per_shard, 1),
    }


def _speedup(engine_bench, base: str) -> None:
    """Record the 4v1 ratio next to the samples (informational here;
    the enforcing side is ``compare_bench.py --check-speedup``)."""
    one = engine_bench[f"{base}_workers1"]["records_per_second"]
    four = engine_bench[f"{base}_workers4"]["records_per_second"]
    engine_bench[f"{base}_workers4"]["speedup_vs_workers1"] = \
        round(four / one, 3) if one else 0.0


@pytest.mark.engine
def test_engine_generate_throughput(engine_bench, save_report, tmp_path):
    """What ``repro-ecs generate --format columnar`` runs, merge included."""
    traces = {}
    reports = {}
    for workers in WORKER_COUNTS:
        traces[workers] = tmp_path / f"allnames-w{workers}.col"
        with WorkerPool(workers):
            _, report = generate_columnar(GENERATE_SPEC, traces[workers],
                                          workers=workers)
        reports[workers] = report
        _record(engine_bench, f"generate_allnames_workers{workers}", report)
    # The determinism contract, at bench scale.
    assert traces[1].read_bytes() == traces[4].read_bytes()
    assert reports[4].pool_mode == "persistent"
    _speedup(engine_bench, "generate_allnames")
    save_report("engine_generate_throughput",
                "\n\n".join(reports[w].report() for w in WORKER_COUNTS))


@pytest.mark.engine
def test_engine_replay_throughput(engine_bench, save_report, tmp_path):
    trace = tmp_path / "public-cdn.jsonl"
    generate_jsonl(REPLAY_SPEC, trace, workers=1)
    results = {}
    reports = {}
    for workers in WORKER_COUNTS:
        with WorkerPool(workers):
            result, report = replay_jsonl_sharded(trace, "public-cdn",
                                                  shards=DEFAULT_SHARDS,
                                                  workers=workers)
        results[workers] = result
        reports[workers] = report
        _record(engine_bench, f"replay_public_cdn_workers{workers}", report)
    assert results[1] == results[4]
    assert results[1].blowup >= 1.0
    _speedup(engine_bench, "replay_public_cdn")
    save_report("engine_replay_throughput",
                "\n\n".join(reports[w].report() for w in WORKER_COUNTS))
