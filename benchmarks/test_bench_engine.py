"""Engine throughput benchmark: the pool must make ``--workers 4`` win.

Measures the sharded generate and replay paths at workers=1 and
workers=4, each run on a pool of its own, in alternating rounds; asserts
the determinism contract holds at bench scale, prints the last round's
reports through ``save_report`` and holds the median of the rounds'
``workers4/workers1`` throughput to ``MIN_SPEEDUP``.

The machine-independent evidence is the payload bytes per shard the
generate report prints: spec dispatch ships index-sized blobs, never
rows, on any host (a JSONL replay ships its trace lines by design).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Tuple

import pytest
from bench_timing import alternating_rounds, median_ratio

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

#: Alternating rounds per bar.  One run takes 0.4-1.4 s on two cores,
#: inside a busy host's noise, so the bar holds the median of the
#: rounds' ratios.
ENGINE_ROUNDS = 5

GENERATE_SPEC = ShardSpec.create("allnames", shard_count=DEFAULT_SHARDS,
                                 scale=0.5, seed=42)
REPLAY_SPEC = ShardSpec.create("public-cdn", shard_count=DEFAULT_SHARDS,
                               scale=0.01, seed=42, duration_s=1800.0)


def _speedup_rounds(save_report, name: str,
                    run: Callable[[int], Tuple[Any, Any]]) -> Dict[int, Any]:
    """Time ``run(workers) -> (result, engine report)`` at each worker
    count in :data:`ENGINE_ROUNDS` alternating rounds, each run on a
    fresh pool; hold the median of the rounds' ``workers4/workers1``
    records per second to :data:`MIN_SPEEDUP` and return each worker
    count's last result."""
    rates: Dict[int, List[float]] = {workers: [] for workers in WORKER_COUNTS}
    reports: Dict[int, Any] = {}

    def mode(workers: int) -> Callable[[], Any]:
        def once() -> Any:
            with WorkerPool(workers):
                result, reports[workers] = run(workers)
            rates[workers].append(reports[workers].records_per_second)
            return result
        return once

    results, _ = alternating_rounds(
        {workers: mode(workers) for workers in WORKER_COUNTS}, ENGINE_ROUNDS)
    speedup = median_ratio(rates, 4, 1)
    save_report(name, "\n\n".join(
        [reports[w].report() for w in WORKER_COUNTS]
        + [f"payload bytes per shard at workers=4: "
           f"{reports[4].payload_bytes_per_shard:,.1f}\n"
           f"workers4/workers1, median of {ENGINE_ROUNDS} alternating "
           f"rounds = {speedup:.2f}x "
           f"(bar >= {MIN_SPEEDUP}x at cpu_count={CPU_COUNT})"]))
    assert reports[4].header_bytes > 0  # it ran pooled
    assert speedup >= MIN_SPEEDUP
    return results


@pytest.mark.engine
def test_engine_generate_throughput(save_report, tmp_path):
    """What ``repro-ecs generate --format columnar`` runs, merge included."""
    traces = {workers: tmp_path / f"allnames-w{workers}.col"
              for workers in WORKER_COUNTS}
    _speedup_rounds(save_report, "engine_generate_throughput",
                    lambda workers: generate_columnar(
                        GENERATE_SPEC, traces[workers], workers=workers))
    # The determinism contract, at bench scale.
    assert traces[1].read_bytes() == traces[4].read_bytes()


@pytest.mark.engine
def test_engine_replay_throughput(save_report, tmp_path):
    trace = tmp_path / "public-cdn.jsonl"
    generate_jsonl(REPLAY_SPEC, trace, workers=1)
    results = _speedup_rounds(
        save_report, "engine_replay_throughput",
        lambda workers: replay_jsonl_sharded(
            trace, "public-cdn", shards=DEFAULT_SHARDS, workers=workers))
    assert results[1] == results[4]
    assert results[1].blowup >= 1.0
