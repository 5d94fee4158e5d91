"""Shard executor: inline or pooled, with spec-dispatch and throughput stats.

``run_sharded`` is the single execution primitive of the engine: it maps a
picklable top-level function over a list of shard argument tuples, either
inline (``workers=1``) or on a :class:`~repro.engine.pool.WorkerPool`,
and always returns results **in shard order** regardless of completion
order.  That ordering guarantee — plus the fact that shard inputs never
depend on the worker count — is what makes parallel runs byte-identical
to serial ones.

Dispatch follows the spec protocol from :mod:`repro.engine.pool`: the
run's *shared* state (the worker function plus everything common to
all shards — builder spec, trace kind, fault plan) is serialized once in
the parent and unpickled once per pool submission, while each shard
ships only its private arguments.  :class:`ShardStats` records the
serialized bytes each shard actually pushed through the pool boundary,
which is the number the engine bench tracks to keep the
ship-the-whole-record-list pessimization from returning.

Timing is measured inside each worker, so :class:`ShardStats` reflects
real per-shard compute time; the wall clock is measured by the parent.
Stats feed the ``benchmarks/`` throughput tracking and are never part of
rendered experiment reports (they would break determinism comparisons).

Observability rides the same out-of-band channel: when the parent
process has an active :mod:`repro.obs` registry or tracer, each shard
call runs against a *fresh* per-shard registry/tracer (inline execution
swaps the parent's out for the duration, pool workers activate their
own), and the snapshots come back with the results: the one way a
shard's counters reach the command's registry (``--metrics-out``,
``/metrics``).  They fold into the parent's collectors in shard order
as each shard or pooled chunk is retrieved, and span IDs are
namespaced by shard index, so the merged metrics, span topology and
ledger are identical for every worker count.  In the parent the whole
run is one ``dispatch`` span.
"""

from __future__ import annotations

import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import live as obs_live
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from . import pool as pool_mod
from .pool import WorkerPool, encode_header, encode_shard_args


@dataclass
class ShardStats:
    """Timing and volume counters for one shard."""

    shard_index: int
    records: int
    seconds: float
    #: Serialized bytes of this shard's private spec as dispatched to the
    #: pool (0 for inline execution, where nothing crosses a boundary).
    payload_bytes: int = 0

    @property
    def records_per_second(self) -> float:
        """Shard throughput; 0.0 for an instantaneous shard."""
        return self.records / self.seconds if self.seconds > 0 else 0.0


@dataclass
class EngineReport:
    """Aggregate throughput of one sharded run."""

    task: str
    workers: int
    wall_seconds: float
    shards: List[ShardStats] = field(default_factory=list)
    #: Serialized bytes of the run's shared header (0 when inline).
    header_bytes: int = 0

    @property
    def total_records(self) -> int:
        return sum(s.records for s in self.shards)

    @property
    def records_per_second(self) -> float:
        """End-to-end throughput against the parent's wall clock."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_records / self.wall_seconds

    @property
    def payload_bytes(self) -> int:
        """Serialized shard-spec bytes shipped to workers, all shards."""
        return sum(s.payload_bytes for s in self.shards)

    @property
    def payload_bytes_per_shard(self) -> float:
        """Mean serialized bytes per shard crossing the pool boundary."""
        if not self.shards:
            return 0.0
        return self.payload_bytes / len(self.shards)

    def summary(self) -> str:
        """One-line status suitable for stderr/progress notes."""
        return (f"[engine] {self.task}: {self.total_records} records, "
                f"{len(self.shards)} shards x {self.workers} worker(s), "
                f"{self.wall_seconds:.2f}s wall "
                f"({self.records_per_second:,.0f} rec/s)")

    def report(self) -> str:
        """Per-shard breakdown (for benchmarks and debugging)."""
        lines = [self.summary()]
        for s in self.shards:
            lines.append(f"  shard {s.shard_index:2d}: {s.records:8d} records "
                         f"in {s.seconds:7.3f}s "
                         f"({s.records_per_second:,.0f} rec/s)")
        return "\n".join(lines)


#: One shard's outcome: (result, record count, seconds, registry | None,
#: tracer | None).
_Outcome = Tuple[Any, int, float, Optional[MetricsRegistry],
                 Optional[Tracer]]


def _len_or_zero(result: Any) -> int:
    """The default ``count_of``: ``len`` where the result has one."""
    return len(result) if hasattr(result, "__len__") else 0


def _observed_call(fn: Callable[..., Any], args: Tuple[Any, ...],
                   shard_index: int, count_of: Callable[[Any], int],
                   capture_metrics: bool, span_limit: Optional[int],
                   task: str = "engine") -> _Outcome:
    """Run ``fn(*args)`` timed, against fresh per-shard obs collectors.

    Swapping (rather than merely activating) the registry/tracer makes
    inline and pooled execution indistinguishable to the instrumented
    code: either way the shard writes into its own collectors, which are
    returned here and merged by the parent in shard order.  The shard
    tracer keeps the parent's ``span_limit`` (``None``: the parent
    traces nothing) and, with a registry, publishes its ledger there.
    ``count_of`` runs here, where the shard ran, so its record count is
    the one number :class:`ShardStats` and the live plane both report.
    With a live emitter active, the shard's boundaries stream out as
    fire-and-forget ``shard_start``/``shard_end`` heartbeats.
    """
    emitter = obs_live.ACTIVE
    if emitter is not None:
        emitter.beat("shard_start", task, shard_index)
    registry: Optional[MetricsRegistry] = None
    previous_registry = (obs_metrics.swap(MetricsRegistry())
                         if capture_metrics else None)
    tracer = None if span_limit is None \
        else Tracer(id_prefix=f"s{shard_index}", limit=span_limit)
    previous_tracer = obs_trace.swap(tracer) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        seconds = time.perf_counter() - start
        if capture_metrics:
            registry = obs_metrics.swap(previous_registry)
        if tracer is not None:
            obs_trace.swap(previous_tracer)
            if registry is not None:
                tracer.publish(registry)
    records = count_of(result)
    if emitter is not None:
        emitter.beat("shard_end", task, shard_index, records=records,
                     seconds=seconds)
    return result, records, seconds, registry, tracer


def _run_header_chunk(header: bytes, args_blobs: Sequence[bytes],
                      base_index: int, count_of: Callable[[Any], int],
                      capture_metrics: bool, span_limit: Optional[int],
                      task: str = "engine") -> List[_Outcome]:
    """Worker entry point: run several consecutive shards of one run.

    The run header (worker function + shared state) is unpickled once
    per submission, not once per shard.  Each shard is still timed (and
    observed) individually so per-shard stats stay meaningful.
    """
    fn, shared = pickle.loads(header)
    outcomes: List[_Outcome] = []
    for offset, blob in enumerate(args_blobs):
        args = pickle.loads(blob)
        outcomes.append(_observed_call(fn, tuple(shared) + tuple(args),
                                       base_index + offset, count_of,
                                       capture_metrics, span_limit, task))
    return outcomes


def _chunk_bounds(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Consecutive ``[lo, hi)`` slices of length <= ``chunk_size``."""
    return [(lo, min(lo + chunk_size, total))
            for lo in range(0, total, chunk_size)]


#: Pool submissions aimed at per worker.  A submission costs ~150 µs of
#: round trip, so shards are batched once they outnumber this many per
#: worker; fewer, larger submissions would leave workers idle at the tail.
SUBMISSIONS_PER_WORKER = 4


def _resolve_pool(workers: int) -> Tuple[WorkerPool, bool]:
    """The pool a parallel run executes on, and whether it is ephemeral.

    The ambient :data:`repro.engine.pool.ACTIVE` pool (installed by an
    enclosing ``with WorkerPool(n):``, as the CLI does per command),
    else a throwaway pool for a bare library call, which
    :func:`run_sharded` shuts down when the run ends.
    """
    ambient = pool_mod.ACTIVE
    if ambient is not None:
        return ambient, False
    return WorkerPool(workers), True


def run_sharded(fn: Callable[..., Any],
                shard_args: Sequence[Tuple[Any, ...]],
                workers: int = 1, task: str = "engine",
                count_of: Optional[Callable[[Any], int]] = None,
                shared: Tuple[Any, ...] = ()
                ) -> Tuple[List[Any], EngineReport]:
    """Run ``fn(*shared, *args)`` for every argument tuple, one per shard.

    ``fn`` must be a module-level (picklable) function.  With
    ``workers > 1`` the calls run on a worker pool (the one of an
    enclosing ``with WorkerPool(n):``, else a throwaway one); results
    are still collected in shard order, so output never depends on
    scheduling.
    ``count_of`` extracts a record count from each result for the stats
    and the live plane (defaults to ``len`` where available); it runs in
    the worker, so it too must be a module-level function.

    ``shared`` holds the arguments common to every shard — the builder
    spec, trace kind, fault plan.  It is serialized once per run and
    unpickled once per submission, so per-shard dispatch cost is the
    private ``args`` tuple alone; keep per-shard tuples down to indices
    and bounds and the pool boundary carries O(shards) small objects.

    Consecutive shards are batched per pool submission to cut
    round-trips when shards far outnumber workers, sized so every worker
    gets about :data:`SUBMISSIONS_PER_WORKER` submissions.  Batching is
    pure dispatch — shard inputs, per-shard seeding and result order are
    unchanged, so outputs stay byte-identical for any worker count.
    With a tracer active, the run is one ``dispatch`` span.
    """
    tracer = obs_trace.ACTIVE
    with (tracer.span("dispatch", task=task, shards=len(shard_args))
          if tracer is not None else nullcontext()):
        return _run_sharded(fn, shard_args, workers, task, count_of, shared,
                            None if tracer is None else tracer.limit)


def _run_sharded(fn: Callable[..., Any],
                 shard_args: Sequence[Tuple[Any, ...]], workers: int,
                 task: str, count_of: Optional[Callable[[Any], int]],
                 shared: Tuple[Any, ...], span_limit: Optional[int]
                 ) -> Tuple[List[Any], EngineReport]:
    """:func:`run_sharded` inside its span; shard tracers get the parent
    tracer's ``span_limit`` (``None``: no tracer)."""
    workers = max(1, workers)
    capture_metrics = obs_metrics.ACTIVE is not None
    count_of = count_of if count_of is not None else _len_or_zero
    emitter = obs_live.ACTIVE
    if emitter is not None:
        emitter.beat("run_start", task, shards=len(shard_args))
    wall_start = time.perf_counter()
    outcomes: List[_Outcome] = []
    payload_bytes: List[int] = [0] * len(shard_args)
    header_bytes = 0
    if workers == 1 or len(shard_args) <= 1:
        for index, args in enumerate(shard_args):
            outcomes.append(_observed_call(fn, tuple(shared) + tuple(args),
                                           index, count_of, capture_metrics,
                                           span_limit, task))
            _fold_observability(outcomes[-1:], inline=True)
    else:
        header = encode_header(fn, tuple(shared))
        header_bytes = len(header)
        blobs = [encode_shard_args(tuple(args), index)
                 for index, args in enumerate(shard_args)]
        payload_bytes = [len(blob) for blob in blobs]
        chunk_size = max(1, len(shard_args)
                         // (workers * SUBMISSIONS_PER_WORKER))
        bounds = _chunk_bounds(len(shard_args), chunk_size)
        run_pool, ephemeral = _resolve_pool(workers)
        submissions = [(header, blobs[lo:hi], lo, count_of,
                        capture_metrics, span_limit, task)
                       for lo, hi in bounds]
        if emitter is not None:
            for position, (lo, hi) in enumerate(bounds):
                emitter.beat("dispatch", task, lo, shards=hi - lo,
                             payload_bytes=sum(payload_bytes[lo:hi]),
                             queue_depth=len(bounds) - position)
        try:
            for chunk in run_pool.run_batch(_run_header_chunk, submissions,
                                            bounds, task=task):
                outcomes.extend(chunk)
                _fold_observability(chunk, inline=False)
        finally:
            if ephemeral:
                run_pool.shutdown()
    wall = time.perf_counter() - wall_start

    results = [result for result, _, _, _, _ in outcomes]
    stats = [ShardStats(index, records, seconds, payload_bytes[index])
             for index, (_, records, seconds, _, _)
             in enumerate(outcomes)]
    report = EngineReport(task, workers, wall, stats,
                          header_bytes=header_bytes)
    if emitter is not None:
        emitter.beat("run_end", task, records=report.total_records)
    return results, report


def _fold_observability(outcomes: Sequence[_Outcome], inline: bool) -> None:
    """Merge shard snapshots, in shard order, into the parent's obs.  An
    ``inline`` shard ran inside the open ``dispatch`` span, so its ledger
    seconds are that span's child time: at one worker the rows sum to the
    wall."""
    parent = obs_metrics.ACTIVE
    parent_tracer = obs_trace.ACTIVE
    for _, _, _, registry, tracer in outcomes:
        if parent is not None and registry is not None:
            parent.merge_from(registry)
        if parent_tracer is not None and tracer is not None:
            parent_tracer.absorb(tracer, inline=inline)
