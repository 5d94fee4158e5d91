"""Failure modes of the worker pool and the spec-dispatch protocol.

A parallel engine earns trust by how it fails: a dead worker must
surface as a prompt, attributable error (never a hang), a poisoned shard
spec must fail fast in the parent naming the shard, and the pool must
shut down idempotently.  This suite also pins the serialization economics
the protocol exists for — shared run state pickled once per run, no
matter how many chunks the run dispatches.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, List, Tuple

import pytest

from repro.engine import (PoolShutdownError, ShardDispatchError,
                          WorkerCrashError, WorkerPool, run_sharded)
from repro.engine import pool as pool_mod
from repro.engine.pool import encode_shard_args
from repro.obs import live as obs_live
from repro.obs.live import LiveSink


def _double(shard_index: int) -> int:
    return shard_index * 2


def _worker_pid(shard_index: int) -> int:
    return os.getpid()


def _exit_worker(target: int, shard_index: int) -> int:
    """Dies hard (bypassing exception handling) on the target shard."""
    if shard_index == target:
        os._exit(13)
    return shard_index


class CountingState:
    """Shared run state that counts its own pickling (parent side)."""

    serializations = 0

    def __init__(self, payload: str = "shared"):
        self.payload = payload

    def __getstate__(self) -> dict:
        type(self).serializations += 1
        return {"payload": self.payload}

    def __setstate__(self, state: dict) -> None:
        self.payload = state["payload"]


def _use_state(state: CountingState, shard_index: int) -> str:
    return f"{state.payload}:{shard_index}"


# ---------------------------------------------------------------------------
# Worker crashes.


def test_worker_crash_raises_promptly_with_task_name():
    # Shard 2 dies; the first result lost is its own or an earlier one's.
    with WorkerPool(2):
        with pytest.raises(WorkerCrashError,
                           match=r"chaos-crash.*died; shards \[[0-2], [1-3]\)"
                                 r".*every later shard were lost"):
            run_sharded(_exit_worker, [(i,) for i in range(4)], workers=2,
                        task="chaos-crash", shared=(2,))


def test_worker_crash_leaves_a_timeline_event():
    """With the live plane on, the crash is a beat in the sink's ring
    naming the task and the first lost shard range, as the error does."""
    sink = LiveSink()
    previous = obs_live.swap(sink.emitter())
    try:
        with WorkerPool(2):
            with pytest.raises(WorkerCrashError) as excinfo:
                run_sharded(_exit_worker, [(i,) for i in range(4)],
                            workers=2, task="crash-beat", shared=(2,))
    finally:
        obs_live.swap(previous)
        sink.close()
    crashes = [beat for beat in sink.timeline()[0]
               if beat.kind == "worker_crash"]
    assert len(crashes) == 1
    crash = crashes[0]
    assert crash.task == "crash-beat"
    lo, hi = crash.shard, crash.shard + crash.attrs["shards"]
    assert f"shards [{lo}, {hi})" in str(excinfo.value)


def test_persistent_pool_recovers_after_crash():
    """A crash discards the broken executor; the next batch respawns."""
    with WorkerPool(2):
        with pytest.raises(WorkerCrashError):
            run_sharded(_exit_worker, [(i,) for i in range(4)], workers=2,
                        shared=(1,))
        results, report = run_sharded(_double, [(i,) for i in range(4)],
                                      workers=2)
        assert results == [0, 2, 4, 6]
        assert report.header_bytes > 0  # it ran pooled


# ---------------------------------------------------------------------------
# Lifecycle: the with block shares workers; shutdown semantics.


def test_with_block_shares_workers_across_calls():
    shards = [(i,) for i in range(4)]
    with WorkerPool(2) as pool:
        first, _ = run_sharded(_worker_pid, shards, workers=2)
        executor = pool._executor
        second, _ = run_sharded(_worker_pid, shards, workers=2)
        assert pool._executor is executor is not None
    assert os.getpid() not in first and len({*first, *second}) <= 2


def test_nested_with_restores_outer_pool():
    assert pool_mod.ACTIVE is None
    with WorkerPool(2) as outer:
        with WorkerPool(2) as inner:
            assert pool_mod.ACTIVE is inner
        assert pool_mod.ACTIVE is outer
        assert run_sharded(_double, [(0,), (1,)], workers=2)[0] == [0, 2]
    assert pool_mod.ACTIVE is None


def test_shutdown_is_idempotent_even_on_unused_pool():
    pool = WorkerPool(2)
    pool.shutdown()
    pool.shutdown()  # second call must be a no-op, not an error

    with WorkerPool(2) as used:
        assert run_sharded(_double, [(0,), (1,)], workers=2)[0] == [0, 2]
    used.shutdown()  # the with block already shut it down


def test_use_after_shutdown_raises_pool_shutdown_error():
    pool = WorkerPool(2)
    pool.shutdown()
    previous = pool_mod.activate(pool)
    try:
        with pytest.raises(PoolShutdownError, match="shut down"):
            run_sharded(_double, [(0,), (1,)], workers=2)
    finally:
        pool_mod.activate(previous)


def test_pool_constructor_validates():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        WorkerPool(0)


# ---------------------------------------------------------------------------
# Poisoned specs fail fast, in the parent, naming the culprit.


def test_unpicklable_shard_arg_names_the_shard():
    args: List[Tuple[Any, ...]] = [(0,), (1,), (threading.Lock(),), (3,)]
    with WorkerPool(2) as pool:
        with pytest.raises(ShardDispatchError, match=r"shard 2 spec"):
            run_sharded(_double, args, workers=2)
        # Dispatch failed during encoding, before anything was submitted:
        # the persistent pool never had to spawn its executor.
        assert pool._executor is None


def test_unpicklable_shared_state_fails_fast():
    with pytest.raises(ShardDispatchError, match="shared run state"):
        run_sharded(_double, [(0,), (1,)], workers=2,
                    shared=(threading.Lock(),))


def test_unaddressable_worker_function_fails_fast():
    """Pickle stores the worker function by reference, so a lambda or a
    nested function cannot cross the pool: dispatch refuses it in the
    parent, naming the function, before any worker is spawned."""
    def nested(x: int) -> int:
        return x

    with WorkerPool(2) as pool:
        for fn in (lambda x: x, nested):
            with pytest.raises(ShardDispatchError, match="module-level"):
                run_sharded(fn, [(0,), (1,)], workers=2)
        assert pool._executor is None


# ---------------------------------------------------------------------------
# Serialization economics: once per run.


def test_shared_state_pickled_once_per_run_despite_many_chunks():
    """The re-pickle fix: 8 one-shard submissions are still ONE pickle."""
    CountingState.serializations = 0
    state = CountingState()
    with WorkerPool(2):
        results, _ = run_sharded(_use_state, [(i,) for i in range(8)],
                                 workers=2, shared=(state,))
    assert results == [f"shared:{i}" for i in range(8)]
    assert CountingState.serializations == 1


def test_encode_shard_args_roundtrip_and_payload_is_compact():
    blob = encode_shard_args((3, 17), 3)
    assert pickle.loads(blob) == (3, 17)
    # Index-and-bound specs are tens of bytes — the structural guarantee
    # that record lists no longer cross the pool boundary.
    assert len(blob) < 64
