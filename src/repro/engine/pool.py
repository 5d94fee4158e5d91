"""Persistent worker pools and the spec-dispatch wire protocol.

Two orthogonal pieces behind :func:`~repro.engine.executor.run_sharded`:

* :class:`WorkerPool` — a pool whose worker processes are created once
  and reused by every sharded call made inside its ``with`` block.

* a **spec dispatch protocol** — each sharded run serializes its *run
  header* (the worker function, by reference, plus everything shared by
  all shards: builder spec, trace kind, fault plan, …) exactly **once**
  in the parent; every pool submission carries that same header blob
  plus the per-shard argument blobs, and unpickles the header once.  A
  run makes about four submissions per worker, so the shared state is
  deserialized a few times per worker, never once per shard.

Everything here is deterministic plumbing: which pool executes a shard,
and how its inputs travel, can never change the shard's output.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from types import TracebackType
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Type)

from ..obs import live as _obs_live


class PoolError(RuntimeError):
    """Base class for pool dispatch failures."""


class ShardDispatchError(PoolError):
    """A shard's spec could not be serialized for dispatch.

    Raised in the parent *before* anything is submitted, naming the
    offending shard, so a poisoned spec fails fast instead of surfacing
    as an opaque pickling traceback from pool internals mid-run.
    """


class WorkerCrashError(PoolError):
    """A worker process died mid-shard (segfault, ``os._exit``, OOM kill).

    Wraps :class:`concurrent.futures.process.BrokenProcessPool` with the
    task name and the first shard range whose result was lost, so the
    failure is attributable; the broken executor is discarded, never
    hung on.
    """


class PoolShutdownError(PoolError):
    """A pool was used after an explicit :meth:`WorkerPool.shutdown`."""


def encode_header(fn: Callable[..., Any], shared: Tuple[Any, ...]) -> bytes:
    """Serialize one run's ``(fn, shared)`` — once per sharded run.

    Pickle stores ``fn`` by reference (module and name), so it refuses a
    lambda or a nested function; either that or unpicklable shared state
    raises :class:`ShardDispatchError` before anything is submitted.
    """
    try:
        return pickle.dumps((fn, shared), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ShardDispatchError(
            f"run header for {fn!r} is not picklable: shard functions "
            f"must be module-level and the shared run state picklable: "
            f"{exc!r}") from exc


def encode_shard_args(args: Tuple[Any, ...], shard_index: int) -> bytes:
    """Serialize one shard's private arguments, failing fast by index."""
    try:
        return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ShardDispatchError(
            f"shard {shard_index} spec is not picklable: {exc!r}") from exc


# ---------------------------------------------------------------------------
# The pool itself.


class WorkerPool:
    """A process pool with an explicit lifecycle and crash attribution.

    ``with WorkerPool(n):`` is the one way to share workers across
    sharded calls: inside the block the pool is the ambient one
    (:data:`ACTIVE`) that :func:`~repro.engine.executor.run_sharded`
    dispatches to; leaving it restores the previous ambient pool and
    shuts this one down.  The executor is created lazily on first
    dispatch and reused until :meth:`shutdown` — one process spawn per
    block (``repro-ecs all`` runs its whole command sequence on one set
    of workers).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._previous: Optional[WorkerPool] = None

    # -- lifecycle -----------------------------------------------------------

    @staticmethod
    def _executor_kwargs() -> Dict[str, Any]:
        """Telemetry plumbing for fresh worker processes.

        When the live plane is active in the parent
        (:mod:`repro.obs.live`), every executor gets an initializer that
        installs a queue-backed emitter in each worker — the side
        channel worker heartbeats ride.  Inactive: no extra kwargs, so
        pools outside a live session are byte-for-byte the old ones.
        """
        init = _obs_live.pool_initializer()
        if init is None:
            return {}
        initializer, initargs = init
        return {"initializer": initializer, "initargs": initargs}

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise PoolShutdownError("worker pool has been shut down")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, **self._executor_kwargs())
        return self._executor

    def _discard_broken(self) -> None:
        """Drop a crashed executor; a later batch gets a fresh one."""
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Release the workers.  Idempotent; safe on a never-used pool."""
        self._closed = True
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        self._previous = activate(self)
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        activate(self._previous)
        self.shutdown()

    # -- dispatch ------------------------------------------------------------

    def run_batch(self, worker: Callable[..., Any],
                  submissions: List[Tuple[Any, ...]],
                  bounds: Sequence[Tuple[int, int]],
                  task: str = "engine") -> Iterator[Any]:
        """Submit ``worker(*submission)`` for each entry; yield each
        result, in submission order, as soon as it is retrieved.

        ``worker`` must be a module-level function (it crosses the pickle
        boundary by reference); ``bounds[i]`` is the ``[lo, hi)`` shard
        range submission ``i`` carries.  A worker-process death surfaces
        as :class:`WorkerCrashError` naming ``task`` and the first shard
        range whose result was not retrieved — promptly, never as a
        hang, because a broken pool fails every outstanding future (so
        the named range is where the loss starts, not necessarily where
        the crash happened); with the live plane on, a ``worker_crash``
        beat naming the same range lands on the timeline first.  When a
        submission raises, or the caller stops early, the rest are
        cancelled or awaited first: nothing of a failed batch still
        writes files while its caller cleans up.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(worker, *submission)
                   for submission in submissions]
        try:
            for (lo, hi), future in zip(bounds, futures):
                yield future.result()
        except BrokenProcessPool as exc:
            self._discard_broken()
            emitter = _obs_live.ACTIVE
            if emitter is not None:
                emitter.beat("worker_crash", task, lo, shards=hi - lo)
            raise WorkerCrashError(
                f"{task}: a worker process died; shards [{lo}, {hi}) "
                f"are the first whose result was not retrieved, and "
                f"they and every later shard were lost; results were "
                f"discarded, no partial merge was attempted") from exc
        except BaseException:
            for future in futures:
                future.cancel()
            wait(futures)
            raise


# ---------------------------------------------------------------------------
# The ambient pool slot.  ``with WorkerPool(n):`` installs the pool here
# (the CLI opens one per command); ``run_sharded`` picks it up so every
# sharded call inside the block shares the same workers.

ACTIVE: Optional[WorkerPool] = None


def activate(pool: Optional[WorkerPool]) -> Optional[WorkerPool]:
    """Install ``pool`` as the ambient pool; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = pool
    return previous
