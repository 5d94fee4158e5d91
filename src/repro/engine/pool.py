"""Persistent worker pools and the spec-dispatch wire protocol.

The engine's original executor created a fresh ``ProcessPoolExecutor``
per :func:`~repro.engine.executor.run_sharded` call and shipped whole
argument tuples — for replay, entire materialized record lists — through
the pickle boundary on every chunk.  ``BENCH_engine.json`` showed the
consequence: ``--workers 4`` ran ~5x *slower* than ``--workers 1``
because serialization dominated the useful work.

This module replaces that with two orthogonal pieces:

* :class:`WorkerPool` — a pool whose worker processes are created once
  per run and reused by every sharded call of the run.

* a **spec dispatch protocol** — each sharded run serializes its *run
  header* (the worker function's import token plus everything shared by
  all shards: builder spec, trace kind, fault plan, …) exactly **once**
  in the parent; every chunk submission carries that same header blob
  plus the per-shard argument blobs.  Workers memoize the decoded header
  by content digest (:data:`_HEADER_CACHE`), so a run deserializes its
  shared state once per worker — not once per chunk, and never once per
  shard.

Workers additionally memoize expensive *derived* state (for example a
dataset materialized from a builder spec) in :data:`_DERIVED_CACHE`,
keyed by the same digest, so a worker that replays eight shards of one
spec builds the dataset a single time.

Everything here is deterministic plumbing: which pool executes a shard,
and how its inputs travel, can never change the shard's output.
"""

from __future__ import annotations

import hashlib
import importlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from types import TracebackType
from typing import (Any, Callable, Dict, List, Optional, Tuple, Type,
                    TypeVar)

from ..obs import live as _obs_live

# ---------------------------------------------------------------------------
# Analyzer introspection hooks.
#
# The whole-program linter (``repro.staticcheck.graph``) reads these
# declarations instead of hard-coding engine internals: which functions
# are worker entrypoints, which call edges cross a pickle boundary, and
# which extra seeds the worker-reachability closure starts from.  The
# declarations live *here*, next to the machinery they describe, so the
# engine and the analyzer cannot drift apart.

#: ``"module:qualname"`` of every function decorated as a worker
#: entrypoint, in registration (import) order.
WORKER_ENTRYPOINTS: List[str] = []

#: Call edges whose arguments are pickled for dispatch.  Entries are
#: ``"module:Qual"`` naming a function, method, or class constructor;
#: an optional ``"#kw1,kw2"`` suffix restricts the check to the named
#: parameters (``run_sharded`` pickles ``shard_args``/``shared`` but
#: its ``count_of`` callback stays in the parent).
PICKLE_BOUNDARIES: Tuple[str, ...] = (
    "repro.engine.sharding:ShardSpec",
    "repro.engine.sharding:ShardSpec.create",
    "repro.engine.pool:encode_header",
    "repro.engine.pool:encode_shard_args",
    "repro.engine.executor:run_sharded#shard_args,shared",
    "repro.obs.live:LiveEmitter.event",
)

#: Extra worker-reachability roots beyond ``@worker_entrypoint`` and the
#: builder registry: methods invoked inside workers by contract.
WORKER_SEEDS: Tuple[str, ...] = (
    "repro.faults.plan:FaultPlan.bind",
)

#: Typed alias so the decorator preserves the wrapped signature.
_F = TypeVar("_F", bound=Callable[..., Any])


def worker_entrypoint(fn: _F) -> _F:
    """Mark ``fn`` as a function the pool dispatches into workers.

    Purely declarative: the function is returned unchanged (no wrapper,
    so ``fn_token`` addressing still works) and its ``module:qualname``
    is recorded in :data:`WORKER_ENTRYPOINTS`.  The static analyzer
    seeds its worker-reachability closure from these declarations.
    """
    token = f"{fn.__module__}:{fn.__qualname__}"
    if token not in WORKER_ENTRYPOINTS:
        WORKER_ENTRYPOINTS.append(token)
    return fn


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
    task name and the shard range that was in flight, so the failure is
    attributable; the broken executor is discarded, never hung on.
    """


class PoolShutdownError(PoolError):
    """A pool was used after an explicit :meth:`WorkerPool.shutdown`."""


def fn_token(fn: Callable[..., Any]) -> Tuple[str, str]:
    """The importable address of a worker function.

    Workers resolve the function from ``(module, qualname)`` instead of
    unpickling a callable per chunk; only module-level functions qualify
    (the same restriction pickle itself imposes on pool targets).
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ShardDispatchError(
            f"worker function {fn!r} is not addressable as module.qualname; "
            f"shard functions must be module-level")
    return module, qualname


def encode_header(fn: Callable[..., Any], shared: Tuple[Any, ...]) -> bytes:
    """Serialize one run's shared state — called once per sharded run."""
    try:
        return pickle.dumps((fn_token(fn), shared),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except ShardDispatchError:
        raise
    except Exception as exc:
        raise ShardDispatchError(
            f"shared run state for {fn.__qualname__} is not picklable: "
            f"{exc!r}") from exc


def encode_shard_args(args: Tuple[Any, ...], shard_index: int) -> bytes:
    """Serialize one shard's private arguments, failing fast by index."""
    try:
        return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ShardDispatchError(
            f"shard {shard_index} spec is not picklable: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Worker-side caches.
#
# These module globals live in the *worker* processes (and, for inline
# execution, in the parent — the cache key is a content digest, so a
# stale hit is impossible, only a cheap one).  They are the mechanism
# that turns "one header blob per chunk" into "one deserialization per
# worker".

#: digest -> (fn, shared). Decoded run headers.
_HEADER_CACHE: Dict[bytes, Tuple[Callable[..., Any], Tuple[Any, ...]]] = {}

#: Total header deserializations in this process (test observability).
_HEADER_LOADS = 0

#: digest+tag -> derived object (e.g. a materialized dataset).
_DERIVED_CACHE: Dict[Tuple[bytes, str], Any] = {}

#: Bound on both caches; two run headers is plenty (one per live run).
_CACHE_KEEP = 2


def _evict(cache: Dict[Any, Any]) -> None:
    """Drop oldest entries beyond the bound (dict preserves insert order)."""
    while len(cache) > _CACHE_KEEP:
        cache.pop(next(iter(cache)))


def header_digest(header: bytes) -> bytes:
    """Content key for the worker-side caches."""
    return hashlib.sha256(header).digest()


def decode_header(header: bytes
                  ) -> Tuple[Callable[..., Any], Tuple[Any, ...]]:
    """Decode (memoized) one run header into ``(fn, shared)``."""
    global _HEADER_LOADS
    digest = header_digest(header)
    hit = _HEADER_CACHE.get(digest)
    if hit is not None:
        return hit
    (module, qualname), shared = pickle.loads(header)
    fn = getattr(importlib.import_module(module), qualname)
    _HEADER_LOADS += 1
    _HEADER_CACHE[digest] = (fn, shared)
    _evict(_HEADER_CACHE)
    return fn, shared


def header_loads() -> int:
    """How many run headers this process has deserialized (for tests)."""
    return _HEADER_LOADS


def derived_state(header_digest_key: bytes, tag: str,
                  build: Callable[[], Any]) -> Any:
    """Memoized per-worker derived state for one run.

    ``build()`` runs at most once per (run, tag) in each process;
    subsequent shards of the same run reuse the object.  Used by the
    spec replay path to materialize a builder's dataset once per worker
    instead of once per shard.
    """
    key = (header_digest_key, tag)
    if key not in _DERIVED_CACHE:
        _DERIVED_CACHE[key] = build()
        _evict(_DERIVED_CACHE)
    return _DERIVED_CACHE[key]


# ---------------------------------------------------------------------------
# The pool itself.


class WorkerPool:
    """A process pool with an explicit lifecycle and crash attribution.

    The executor is created lazily on first dispatch and reused until
    :meth:`shutdown` — one process spawn per run, shared by every
    sharded call (``repro-ecs all`` runs its whole command sequence on
    one set of workers).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False

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
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.shutdown()

    # -- dispatch ------------------------------------------------------------

    def run_batch(self, worker: Callable[..., Any],
                  submissions: List[Tuple[Any, ...]],
                  task: str = "engine") -> List[Any]:
        """Submit ``worker(*submission)`` for each entry; results in order.

        ``worker`` must be a module-level function (it crosses the pickle
        boundary by reference).  A worker-process death surfaces as
        :class:`WorkerCrashError` naming ``task`` and the submission that
        was lost — promptly, never as a hang, because a broken pool fails
        every outstanding future.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(worker, *submission)
                   for submission in submissions]
        results: List[Any] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                self._discard_broken()
                raise WorkerCrashError(
                    f"{task}: worker process died while running "
                    f"batch submission {index}/{len(futures)} "
                    f"(see shard bounds in the traceback context); "
                    f"results were discarded, no partial merge was "
                    f"attempted") from exc
        return results


# ---------------------------------------------------------------------------
# The ambient pool slot.  The CLI opens one pool per command and
# activates it here; ``run_sharded`` picks it up so every sharded call
# of the command shares the same workers.  Tests and library callers can
# also pass a pool explicitly.

ACTIVE: Optional[WorkerPool] = None


def activate(pool: Optional[WorkerPool]) -> Optional[WorkerPool]:
    """Install ``pool`` as the ambient pool; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = pool
    return previous
