"""Live telemetry: streaming heartbeats from workers to a parent sink.

The post-hoc obs layer (:mod:`repro.obs.metrics` / ``trace``) only
materializes after :class:`~repro.engine.executor.EngineReport` merges
shards, so a long run is a black box until it finishes.  This module
adds the *live plane*: instrumented engine code emits sequence-numbered
:class:`Heartbeat` messages — run/dispatch/shard lifecycle moments plus
per-worker rusage samples — through the process-wide :data:`ACTIVE`
emitter slot, and a parent-side :class:`LiveSink` folds them into a
scrapeable registry (served by :mod:`repro.obs.server`), a run-status
snapshot, and a :class:`~repro.obs.timeline.Timeline`.

Transport follows the worker topology:

* in the parent (and for inline ``workers=1`` runs) the slot holds a
  :class:`SinkEmitter` that feeds the sink directly;
* pool workers get a :class:`QueueEmitter` writing to a
  ``multiprocessing`` queue.  :func:`pool_initializer` hands
  :class:`~repro.engine.pool.WorkerPool` the initializer that installs
  it, and the sink drains the queue on a daemon thread.

The protocol is **loss-tolerant by design**: emitters never block
(``put_nowait``; a full or closed channel drops the beat), every beat
carries a per-emitter sequence number, and the sink counts gaps and
stale deliveries instead of trusting transport.  It is also strictly
**out-of-band**: heartbeats ride a side channel, never the result path,
so experiment outputs stay byte-identical at any ``--workers`` with the
live plane on or off.  Shard-end beats may attach the shard's own
:class:`~repro.obs.metrics.MetricsRegistry`; because each shard registry
is merged exactly once, every counter the sink serves is monotonically
non-decreasing across scrapes.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple)

from .metrics import Counter, MetricsRegistry
from .timeline import Timeline, TimelineEvent

if TYPE_CHECKING:
    from multiprocessing.queues import Queue as _MpQueue

    #: The cross-process heartbeat channel.
    BeatChannel = _MpQueue[  # pragma: no cover - typing only
        "Heartbeat"]

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None  # type: ignore[assignment]


def _rusage() -> Tuple[int, float]:
    """(max RSS in KiB, user+system CPU seconds) for this process."""
    if _resource is None:
        return 0, 0.0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    return int(usage.ru_maxrss), float(usage.ru_utime + usage.ru_stime)


#: Counter-name prefixes surfaced in the ``/run`` status document.
_STATUS_COUNTER_PREFIXES = ("repro_faults_", "repro_retries_",
                            "repro_ecs_downgrades_")


@dataclass
class Heartbeat:
    """One telemetry message from an emitter to the sink.

    ``seq`` increments per emitter (so per process), letting the sink
    detect loss and discard stale redeliveries; ``ts`` is
    ``time.monotonic()`` (system-wide on Linux, comparable across the
    pool).  All fields are picklable — beats cross the pool boundary as
    plain queue items.
    """

    seq: int
    pid: int
    ts: float
    kind: str
    task: str = ""
    shard: Optional[int] = None
    records: int = 0
    seconds: float = 0.0
    payload_bytes: int = 0
    queue_depth: int = 0
    shards: int = 0
    rss_kb: int = 0
    cpu_seconds: float = 0.0
    metrics: Optional[MetricsRegistry] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class LiveEmitter:
    """Builds sequence-numbered heartbeats; subclasses deliver them.

    The convenience methods (:meth:`run_start` … :meth:`event`) are the
    vocabulary instrumented code speaks; delivery (and loss) policy
    lives entirely in the subclass :meth:`emit`.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._pid = os.getpid()

    # -- delivery (subclass responsibility) ---------------------------------

    def emit(self, beat: Heartbeat) -> None:
        raise NotImplementedError

    def worker_channel(self) -> Optional["BeatChannel"]:
        """The queue pool workers should emit into (``None`` = no pool)."""
        return None

    # -- beat construction --------------------------------------------------

    def _beat(self, kind: str, *, task: str = "",
              shard: Optional[int] = None, records: int = 0,
              seconds: float = 0.0, payload_bytes: int = 0,
              queue_depth: int = 0, shards: int = 0,
              metrics: Optional[MetricsRegistry] = None,
              attrs: Optional[Dict[str, Any]] = None) -> Heartbeat:
        self._seq += 1
        rss_kb, cpu_seconds = _rusage()
        return Heartbeat(seq=self._seq, pid=self._pid, ts=time.monotonic(),
                         kind=kind, task=task, shard=shard, records=records,
                         seconds=seconds, payload_bytes=payload_bytes,
                         queue_depth=queue_depth, shards=shards,
                         rss_kb=rss_kb, cpu_seconds=cpu_seconds,
                         metrics=metrics, attrs=attrs or {})

    # -- instrumentation vocabulary -----------------------------------------

    def run_start(self, task: str, shards: int) -> None:
        self.emit(self._beat("run_start", task=task, shards=shards))

    def run_end(self, task: str, records: int) -> None:
        self.emit(self._beat("run_end", task=task, records=records))

    def dispatch(self, task: str, shard: int, shards: int,
                 payload_bytes: int, queue_depth: int) -> None:
        """One chunk submission: ``shard`` is the chunk's first index."""
        self.emit(self._beat("dispatch", task=task, shard=shard,
                             shards=shards, payload_bytes=payload_bytes,
                             queue_depth=queue_depth))

    def shard_start(self, task: str, shard: int) -> None:
        self.emit(self._beat("shard_start", task=task, shard=shard))

    def shard_end(self, task: str, shard: int, records: int,
                  seconds: float,
                  metrics: Optional[MetricsRegistry] = None) -> None:
        self.emit(self._beat("shard_end", task=task, shard=shard,
                             records=records, seconds=seconds,
                             metrics=metrics))

    def progress(self, task: str, shard: Optional[int],
                 records: int) -> None:
        """A mid-shard tick for long shards (chaos scans, big merges)."""
        self.emit(self._beat("progress", task=task, shard=shard,
                             records=records))

    def event(self, kind: str, task: str = "",
              shard: Optional[int] = None, records: int = 0,
              seconds: float = 0.0, **attrs: Any) -> None:
        """A free-form lifecycle moment (``seconds > 0`` makes a slice)."""
        self.emit(self._beat(kind, task=task, shard=shard, records=records,
                             seconds=seconds, attrs=dict(attrs)))


class SinkEmitter(LiveEmitter):
    """Parent-side emitter: beats go straight into the sink."""

    def __init__(self, sink: "LiveSink") -> None:
        super().__init__()
        self.sink = sink

    def emit(self, beat: Heartbeat) -> None:
        self.sink.offer(beat)

    def worker_channel(self) -> Optional["BeatChannel"]:
        return self.sink.worker_channel()


class QueueEmitter(LiveEmitter):
    """Worker-side emitter: non-blocking sends into the pool channel.

    A full or torn-down channel silently drops the beat — the sequence
    number still advanced, so the sink's loss counter records the gap.
    Telemetry must never block or fail a shard.
    """

    def __init__(self, channel: "BeatChannel") -> None:
        super().__init__()
        self._channel = channel

    def emit(self, beat: Heartbeat) -> None:
        try:
            self._channel.put_nowait(beat)
        except (queue_mod.Full, ValueError, OSError):
            pass


@dataclass
class WorkerStatus:
    """Per-process view the sink maintains from heartbeats."""

    pid: int
    beats: int = 0
    busy_seconds: float = 0.0
    rss_kb: int = 0
    cpu_seconds: float = 0.0
    last_seq: int = 0


@dataclass
class TaskStatus:
    """Per-task shard progress ledger."""

    task: str
    shards_total: int = 0
    dispatched: int = 0
    started: int = 0
    done: int = 0
    records: int = 0
    payload_bytes: int = 0


#: Signature of the optional per-beat callback (the ``--live`` printer).
OnBeat = Callable[["LiveSink", Heartbeat], None]


class LiveSink:
    """Folds heartbeats into scrapeable state (thread-safe).

    Owns three views of the run: a cumulative
    :class:`~repro.obs.metrics.MetricsRegistry` (``repro_live_*``
    instruments plus every shard registry attached to a ``shard_end``
    beat), a JSON-friendly run status (shard progress per task, worker
    utilization, loss accounting), and a bounded
    :class:`~repro.obs.timeline.Timeline`.  All three are read by
    :class:`~repro.obs.server.TelemetryServer` under the sink's lock,
    so scrapes are consistent snapshots.
    """

    def __init__(self, on_beat: Optional[OnBeat] = None) -> None:
        self._lock = threading.Lock()
        self._registry = MetricsRegistry()
        self.timeline = Timeline()
        self.on_beat = on_beat
        self.started = time.monotonic()
        self.heartbeats = 0
        self.lost = 0
        self.stale = 0
        self._workers: Dict[int, WorkerStatus] = {}
        self._tasks: Dict[str, TaskStatus] = {}
        self._channel: Optional["BeatChannel"] = None
        self._drain: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- ingestion ----------------------------------------------------------

    def offer(self, beat: Heartbeat) -> None:
        """Fold one heartbeat in; stale (re-)deliveries are ignored."""
        callback: Optional[OnBeat] = None
        with self._lock:
            self.heartbeats += 1
            worker = self._workers.get(beat.pid)
            if worker is None:
                worker = WorkerStatus(pid=beat.pid)
                self._workers[beat.pid] = worker
            if beat.seq <= worker.last_seq:
                self.stale += 1
                return
            lost_now = beat.seq - worker.last_seq - 1
            worker.last_seq = beat.seq
            self.lost += lost_now
            worker.beats += 1
            worker.rss_kb = max(worker.rss_kb, beat.rss_kb)
            worker.cpu_seconds = max(worker.cpu_seconds, beat.cpu_seconds)
            self._absorb(beat, worker, lost_now)
            callback = self.on_beat
        if callback is not None:
            callback(self, beat)

    def _absorb(self, beat: Heartbeat, worker: WorkerStatus,
                lost_now: int) -> None:
        """Update registry, task ledger and timeline (lock held)."""
        reg = self._registry
        reg.counter("repro_live_heartbeats_total",
                    "Live-plane heartbeats received, by beat kind.",
                    ("kind",)).inc(1.0, beat.kind)
        if lost_now:
            reg.counter("repro_live_heartbeats_lost_total",
                        "Heartbeats dropped in transit (sequence gaps)."
                        ).inc(float(lost_now))
        task = self._task(beat.task) if beat.task else None
        kind = beat.kind
        if kind == "run_start" and task is not None:
            task.shards_total += beat.shards
            reg.counter("repro_live_runs_total",
                        "Sharded runs started, per task.",
                        ("task",)).inc(1.0, beat.task)
        elif kind == "dispatch" and task is not None:
            task.dispatched += beat.shards
            task.payload_bytes += beat.payload_bytes
            reg.counter("repro_live_payload_bytes_total",
                        "Serialized shard-spec bytes dispatched, per task.",
                        ("task",)).inc(float(beat.payload_bytes), beat.task)
            reg.gauge("repro_live_queue_depth",
                      "Chunk submissions still queued behind this one.",
                      mode="max").set(float(beat.queue_depth))
        elif kind == "shard_start" and task is not None:
            task.started += 1
        elif kind == "shard_end" and task is not None:
            task.done += 1
            task.records += beat.records
            worker.busy_seconds += beat.seconds
            reg.counter("repro_live_shards_done_total",
                        "Shards completed, per task.",
                        ("task",)).inc(1.0, beat.task)
            reg.counter("repro_live_records_total",
                        "Records processed by completed shards, per task.",
                        ("task",)).inc(float(beat.records), beat.task)
            if beat.metrics is not None:
                reg.merge_from(beat.metrics)
        if task is not None:
            reg.gauge("repro_live_shards_in_flight",
                      "Shards started but not yet finished, per task.",
                      ("task",), mode="max").set(
                          float(max(0, task.started - task.done)), beat.task)
        if beat.rss_kb:
            reg.gauge("repro_live_worker_rss_kb",
                      "Peak resident set size per worker process (KiB).",
                      ("pid",), mode="max").set(float(worker.rss_kb),
                                                str(beat.pid))
        if beat.cpu_seconds:
            reg.gauge("repro_live_worker_cpu_seconds",
                      "User+system CPU time per worker process.",
                      ("pid",), mode="max").set(worker.cpu_seconds,
                                                str(beat.pid))
        self.timeline.add(self._timeline_event(beat))

    def _task(self, name: str) -> TaskStatus:
        task = self._tasks.get(name)
        if task is None:
            task = TaskStatus(task=name)
            self._tasks[name] = task
        return task

    @staticmethod
    def _timeline_event(beat: Heartbeat) -> TimelineEvent:
        name = beat.task or beat.kind
        if beat.shard is not None:
            name = f"{name}[{beat.shard}]"
        attrs: Dict[str, Any] = {}
        if beat.records:
            attrs["records"] = beat.records
        if beat.payload_bytes:
            attrs["payload_bytes"] = beat.payload_bytes
        if beat.queue_depth:
            attrs["queue_depth"] = beat.queue_depth
        if beat.shards:
            attrs["shards"] = beat.shards
        attrs.update(beat.attrs)
        has_span = beat.seconds > 0
        return TimelineEvent(
            ts=beat.ts - beat.seconds if has_span else beat.ts,
            kind=beat.kind, name=name, pid=beat.pid, shard=beat.shard,
            dur=beat.seconds if has_span else None, attrs=attrs)

    # -- snapshots (what the HTTP server reads) -----------------------------

    def registry_snapshot(self) -> MetricsRegistry:
        """A consistent copy of the cumulative registry, plus uptime."""
        with self._lock:
            snapshot = MetricsRegistry().merge_from(self._registry)
        snapshot.gauge("repro_live_uptime_seconds",
                       "Seconds since the sink started.", mode="max").set(
                           time.monotonic() - self.started)
        return snapshot

    def run_status(self) -> Dict[str, Any]:
        """JSON-friendly run snapshot for the ``/run`` route."""
        with self._lock:
            tasks = {
                name: {"shards_total": t.shards_total,
                       "dispatched": t.dispatched,
                       "started": t.started, "done": t.done,
                       "in_flight": max(0, t.started - t.done),
                       "records": t.records,
                       "payload_bytes": t.payload_bytes}
                for name, t in sorted(self._tasks.items())}
            workers = {
                str(pid): {"beats": w.beats,
                           "busy_seconds": round(w.busy_seconds, 6),
                           "rss_kb": w.rss_kb,
                           "cpu_seconds": round(w.cpu_seconds, 6)}
                for pid, w in sorted(self._workers.items())}
            counters: Dict[str, float] = {}
            for instrument in self._registry.instruments():
                if isinstance(instrument, Counter) and \
                        instrument.name.startswith(_STATUS_COUNTER_PREFIXES):
                    counters[instrument.name] = \
                        sum(instrument.samples().values())
            return {
                "uptime_seconds": round(time.monotonic() - self.started, 3),
                "heartbeats": {"received": self.heartbeats,
                               "lost": self.lost, "stale": self.stale},
                "tasks": tasks,
                "workers": workers,
                "counters": counters,
                "timeline": {"events": len(self.timeline),
                             "dropped": self.timeline.dropped},
            }

    # -- the pool side channel ----------------------------------------------

    def worker_channel(self) -> "BeatChannel":
        """The queue workers emit into; created (with its drain thread)
        on first use, so runs without a pool never pay for it."""
        with self._lock:
            if self._channel is None:
                self._channel = multiprocessing.get_context().Queue()
                self._drain = threading.Thread(
                    target=self._drain_loop, name="repro-live-drain",
                    daemon=True)
                self._drain.start()
            return self._channel

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            channel = self._channel
            if channel is None:  # pragma: no cover - close() raced us
                return
            try:
                beat = channel.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            except (EOFError, OSError):  # pragma: no cover - torn down
                return
            self.offer(beat)

    def close(self) -> None:
        """Stop the drain thread and fold any residual queued beats.

        Call after the worker pool has shut down; beats still in the
        channel at that point are drained synchronously so short runs
        lose nothing.  Idempotent.
        """
        self._stop.set()
        drain = self._drain
        if drain is not None:
            drain.join(timeout=2.0)
        channel = self._channel
        self._channel = None
        self._drain = None
        if channel is not None:
            # A multiprocessing queue feeds through a background thread
            # and a pipe, so just-put beats can be transiently invisible
            # to a zero-timeout get; a short timeout closes that window.
            while True:
                try:
                    beat = channel.get(timeout=0.2)
                except (queue_mod.Empty, EOFError, OSError):
                    break
                self.offer(beat)
            channel.close()


# ---------------------------------------------------------------------------
# activation: the process-wide current emitter (mirrors metrics/trace).

#: The active live emitter, or ``None`` when the live plane is off.
#: Instrumented code guards every read (``x = live.ACTIVE; if x is not
#: None: ...``) — RS003 enforces the idiom, exactly as for metrics.
ACTIVE: Optional[LiveEmitter] = None


def swap(emitter: Optional[LiveEmitter]) -> Optional[LiveEmitter]:
    """Install ``emitter`` (possibly ``None``), returning the previous one."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, emitter
    return previous


# ---------------------------------------------------------------------------
# pool wiring: how WorkerPool arranges for workers to emit.


def _install_queue_emitter(channel: "BeatChannel") -> None:
    """Pool-initializer body: runs once in each fresh worker process.

    Replaces whatever emitter the worker inherited (under ``fork`` that
    is the parent's :class:`SinkEmitter`, whose sink copy would be
    written blindly) with a :class:`QueueEmitter` on the shared channel.
    """
    swap(QueueEmitter(channel))


def pool_initializer(
) -> Optional[Tuple[Callable[["BeatChannel"], None],
                    Tuple["BeatChannel", ...]]]:
    """The ``(initializer, initargs)`` a worker pool should install.

    ``None`` when the live plane is inactive (or the active emitter has
    no sink behind it), so pools created outside a live session carry
    zero telemetry plumbing.  The channel rides ``initargs`` — inherited
    under ``fork``, pickled into the spawning context under ``spawn``.
    """
    emitter = ACTIVE
    if emitter is None:
        return None
    channel = emitter.worker_channel()
    if channel is None:
        return None
    return _install_queue_emitter, (channel,)
