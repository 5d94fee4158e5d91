"""Live telemetry: streaming heartbeats from workers to a parent sink.

The post-hoc obs layer (:mod:`repro.obs.metrics` / ``trace``) only
materializes after :class:`~repro.engine.executor.EngineReport` merges
shards, so a long run is a black box until it finishes.  The *live
plane* fixes that: instrumented code calls :meth:`Emitter.beat` on the
process-wide :data:`ACTIVE` emitter, and each call — a
sequence-numbered :class:`Heartbeat` carrying a rusage sample — reaches
a parent-side :class:`LiveSink`.  The sink books it in its registry,
the plane's one ledger (served as ``/metrics``, rendered as ``/run`` by
:mod:`repro.obs.server`), and keeps the beat itself in a bounded ring,
the run's timeline (``--timeline-out``).

An emitter hands each beat to a delivery callable: :meth:`LiveSink.offer`
in the parent (:meth:`LiveSink.emitter`), a non-blocking ``put_nowait``
into a ``multiprocessing`` queue in pool workers, installed by the
initializer :func:`pool_initializer` hands
:class:`~repro.engine.pool.WorkerPool`; the sink drains that queue on a
daemon thread.

The protocol is **loss-tolerant by design**: emitters never block (a
full or closed channel drops the beat), and the sink counts sequence
gaps and stale deliveries instead of trusting transport.  It is also
strictly **out-of-band**: heartbeats ride a side channel, never the
result path, so experiment outputs stay byte-identical at any
``--workers`` with the live plane on or off.  Shard-end beats may
attach the shard's own :class:`~repro.obs.metrics.MetricsRegistry`;
because each shard registry is merged exactly once, every counter the
sink serves is monotonically non-decreasing across scrapes.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from .metrics import Counter, MetricsRegistry

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
    pool).  A beat with ``seconds > 0`` is a slice covering
    ``[ts - seconds, ts)`` on the timeline.  ``attrs`` holds the rest
    (``shards``, ``payload_bytes``, ``queue_depth``, ...).  All fields
    are picklable — beats cross the pool boundary as plain queue items.
    """

    seq: int
    pid: int
    ts: float
    kind: str
    task: str = ""
    shard: Optional[int] = None
    records: int = 0
    seconds: float = 0.0
    rss_kb: int = 0
    cpu_seconds: float = 0.0
    metrics: Optional[MetricsRegistry] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class Emitter:
    """Builds sequence-numbered heartbeats and hands each to ``deliver``.

    ``channel``, set only on a parent emitter, returns the queue pool
    workers should deliver into (see :func:`pool_initializer`).
    """

    def __init__(self, deliver: Callable[[Heartbeat], None],
                 channel: Optional[Callable[[], "BeatChannel"]] = None
                 ) -> None:
        self._deliver = deliver
        self.channel = channel
        self._seq = 0
        self._pid = os.getpid()

    def beat(self, kind: str, task: str = "", shard: Optional[int] = None,
             records: int = 0, seconds: float = 0.0,
             metrics: Optional[MetricsRegistry] = None,
             **attrs: Any) -> None:
        """Emit one beat; ``shard`` is a chunk's first index on dispatch."""
        self._seq += 1
        rss_kb, cpu_seconds = _rusage()
        self._deliver(Heartbeat(self._seq, self._pid, time.monotonic(),
                                kind, task, shard, records, seconds,
                                rss_kb, cpu_seconds, metrics, attrs))


#: ``/run`` task fields and the ledger instrument each one reads; every
#: task that sent a beat has an in-flight sample.
_TASK_FIELDS = (("shards_total", "repro_live_shards_total"),
                ("dispatched", "repro_live_shards_dispatched_total"),
                ("started", "repro_live_shards_started_total"),
                ("done", "repro_live_shards_done_total"),
                ("in_flight", "repro_live_shards_in_flight"),
                ("records", "repro_live_records_total"),
                ("payload_bytes", "repro_live_payload_bytes_total"))


class LiveSink:
    """Folds heartbeats into scrapeable state (thread-safe).

    Keeps one cumulative :class:`~repro.obs.metrics.MetricsRegistry`
    (the ``repro_live_*`` ledger plus every shard registry attached to
    a ``shard_end`` beat) and a ring of the last ``capacity`` accepted
    beats, the run's timeline.  Both are read under the sink's lock, so
    scrapes are consistent snapshots.  ``on_beat(sink, beat)`` (the
    ``--live`` printer) is called after each accepted beat.
    """

    def __init__(self,
                 on_beat: Optional[Callable[["LiveSink", Heartbeat],
                                            None]] = None,
                 capacity: int = 65536) -> None:
        self._lock = threading.Lock()
        self._registry = MetricsRegistry()
        self._ring: Deque[Heartbeat] = deque(maxlen=capacity)
        self.on_beat = on_beat
        self.started = time.monotonic()
        #: Transport state, not ledger: the last sequence seen per pid.
        self._last_seq: Dict[int, int] = {}
        self._channel: Optional["BeatChannel"] = None
        self._drain: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def emitter(self) -> Emitter:
        """A parent-side emitter delivering straight into this sink."""
        return Emitter(self.offer, self.worker_channel)

    # -- ingestion ----------------------------------------------------------

    def offer(self, beat: Heartbeat) -> None:
        """Fold one heartbeat in; stale (re-)deliveries are ignored."""
        with self._lock:
            last = self._last_seq.get(beat.pid, 0)
            if beat.seq <= last:
                self._registry.counter(
                    "repro_live_heartbeats_stale_total",
                    "Stale or repeated heartbeats ignored.").inc()
                return
            self._last_seq[beat.pid] = beat.seq
            if beat.seq - last > 1:
                self._registry.counter(
                    "repro_live_heartbeats_lost_total",
                    "Heartbeats dropped in transit (sequence gaps).").inc(
                        float(beat.seq - last - 1))
            self._absorb(beat)
            self._ring.append(beat)
            callback = self.on_beat
        if callback is not None:
            callback(self, beat)

    def _absorb(self, beat: Heartbeat) -> None:
        """Book one accepted beat in the ledger (lock held)."""
        reg, task, pid, kind = (self._registry, beat.task, str(beat.pid),
                                beat.kind)
        reg.counter("repro_live_heartbeats_total",
                    "Live-plane heartbeats received, by beat kind.",
                    ("kind",)).inc(1.0, kind)
        reg.counter("repro_live_worker_beats_total",
                    "Heartbeats accepted, per emitting process.",
                    ("pid",)).inc(1.0, pid)
        if task and kind == "run_start":
            reg.counter("repro_live_runs_total",
                        "Sharded runs started, per task.",
                        ("task",)).inc(1.0, task)
            reg.counter("repro_live_shards_total",
                        "Shards announced by run starts, per task.",
                        ("task",)).inc(beat.attrs.get("shards", 0), task)
        elif task and kind == "dispatch":
            reg.counter("repro_live_shards_dispatched_total",
                        "Shards submitted to the worker pool, per task.",
                        ("task",)).inc(beat.attrs.get("shards", 0), task)
            reg.counter("repro_live_payload_bytes_total",
                        "Serialized shard-spec bytes dispatched, per task.",
                        ("task",)).inc(beat.attrs.get("payload_bytes", 0),
                                       task)
            reg.gauge("repro_live_queue_depth",
                      "Chunk submissions still queued behind this one.",
                      mode="max").set(beat.attrs.get("queue_depth", 0))
        elif task and kind == "shard_start":
            reg.counter("repro_live_shards_started_total",
                        "Shards started, per task.", ("task",)).inc(1.0, task)
        elif task and kind == "shard_end":
            reg.counter("repro_live_shards_done_total",
                        "Shards completed, per task.",
                        ("task",)).inc(1.0, task)
            reg.counter("repro_live_records_total",
                        "Records processed by completed shards, per task.",
                        ("task",)).inc(float(beat.records), task)
            reg.counter("repro_live_worker_busy_seconds_total",
                        "Seconds spent in completed shards, per process.",
                        ("pid",)).inc(beat.seconds, pid)
            if beat.metrics is not None:
                reg.merge_from(beat.metrics)
        if task:
            in_flight = (
                self._column("repro_live_shards_started_total").get(task, 0)
                - self._column("repro_live_shards_done_total").get(task, 0))
            reg.gauge("repro_live_shards_in_flight",
                      "Shards started but not yet finished, per task.",
                      ("task",), mode="max").set(max(0.0, in_flight), task)
        if beat.rss_kb:
            reg.gauge("repro_live_worker_rss_kb",
                      "Peak resident set size per worker process (KiB).",
                      ("pid",), mode="max").set_max(float(beat.rss_kb), pid)
        if beat.cpu_seconds:
            reg.gauge("repro_live_worker_cpu_seconds",
                      "User+system CPU time per worker process.",
                      ("pid",), mode="max").set_max(beat.cpu_seconds, pid)

    def _column(self, name: str) -> Dict[str, float]:
        """One instrument's samples keyed by its one label value ("")."""
        instrument = self._registry.get(name)
        if instrument is None:
            return {}
        return {key[0] if key else "": value
                for key, value in instrument.samples().items()}

    def _sum(self, name: str) -> int:
        return int(sum(self._column(name).values()))

    # -- snapshots (what the HTTP server and the exporters read) ------------

    def registry_snapshot(self) -> MetricsRegistry:
        """A consistent copy of the cumulative registry, plus uptime."""
        with self._lock:
            snapshot = MetricsRegistry().merge_from(self._registry)
        snapshot.gauge("repro_live_uptime_seconds",
                       "Seconds since the sink started.", mode="max").set(
                           time.monotonic() - self.started)
        return snapshot

    def timeline(self) -> Tuple[List[Heartbeat], int]:
        """The ring's beats, oldest first, and how many it dropped."""
        with self._lock:
            return list(self._ring), self._dropped()

    def _dropped(self) -> int:
        return self._sum("repro_live_heartbeats_total") - len(self._ring)

    def run_status(self) -> Dict[str, Any]:
        """The ``/run`` document, rendered from the ledger counters."""
        with self._lock:
            col = self._column
            tasks = {task: {key: int(col(name).get(task, 0))
                            for key, name in _TASK_FIELDS}
                     for task in sorted(col("repro_live_shards_in_flight"))}
            busy = col("repro_live_worker_busy_seconds_total")
            rss = col("repro_live_worker_rss_kb")
            cpu = col("repro_live_worker_cpu_seconds")
            beats = col("repro_live_worker_beats_total")
            workers = {
                pid: {"beats": int(count),
                      "busy_seconds": round(busy.get(pid, 0.0), 6),
                      "rss_kb": int(rss.get(pid, 0)),
                      "cpu_seconds": round(cpu.get(pid, 0.0), 6)}
                for pid, count in sorted(beats.items(),
                                         key=lambda item: int(item[0]))}
            counters = {
                instrument.name: sum(instrument.samples().values())
                for instrument in self._registry.instruments()
                if isinstance(instrument, Counter) and
                instrument.name.startswith(_STATUS_COUNTER_PREFIXES)}
            calls, seconds = (col(f"repro_layer_{field}_total")
                              for field in ("calls", "seconds"))
            stale = self._sum("repro_live_heartbeats_stale_total")
            return {
                "uptime_seconds": round(time.monotonic() - self.started, 3),
                "heartbeats": {
                    "received": self._sum("repro_live_heartbeats_total")
                    + stale,
                    "lost": self._sum("repro_live_heartbeats_lost_total"),
                    "stale": stale},
                "tasks": tasks,
                "workers": workers,
                "counters": counters,
                "layers": {layer: {"calls": int(count),
                                   "seconds": round(seconds[layer], 6)}
                           for layer, count in sorted(calls.items())},
                "timeline": {"events": len(self._ring),
                             "dropped": self._dropped()},
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
ACTIVE: Optional[Emitter] = None


def swap(emitter: Optional[Emitter]) -> Optional[Emitter]:
    """Install ``emitter`` (possibly ``None``), returning the previous one."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, emitter
    return previous


# ---------------------------------------------------------------------------
# pool wiring: how WorkerPool arranges for workers to emit.


def _install_worker_emitter(channel: "BeatChannel") -> None:
    """Pool-initializer body: runs once in each fresh worker process.

    Replaces whatever emitter the worker inherited (under ``fork`` that
    is the parent's, whose sink copy would be written blindly) with one
    delivering into the shared channel.  A full or torn-down channel
    drops the beat — its sequence number still advanced, so the sink
    counts the gap.  Telemetry must never block or fail a shard.
    """
    def deliver(beat: Heartbeat) -> None:
        try:
            channel.put_nowait(beat)
        except (queue_mod.Full, ValueError, OSError):
            pass

    swap(Emitter(deliver))


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
    if emitter is None or emitter.channel is None:
        return None
    return _install_worker_emitter, (emitter.channel(),)
