"""Live telemetry: streaming heartbeats from workers to a parent sink.

The post-hoc obs layer (:mod:`repro.obs.metrics` / ``trace``) only
materializes after :class:`~repro.engine.executor.EngineReport` merges
shards, so a long run is a black box until it finishes.  The *live
plane* fixes that: instrumented code calls :meth:`Emitter.beat` on the
process-wide :data:`ACTIVE` emitter, and each call — a
sequence-numbered :class:`Heartbeat` carrying a rusage sample — reaches
a parent-side :class:`LiveSink`, which keeps it in a bounded ring, the
run's timeline (``--timeline-out``), and adds it to plain tallies.  The
sink serves (``/metrics``, ``/run``: :mod:`repro.obs.server`) one
ledger: the command's registry, which ``--metrics-out`` writes, plus
``repro_live_*`` families rendered from the tallies when read.

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
``--workers`` with the live plane on or off.  Beats carry no metrics: a
shard's registry comes back with its result and is merged exactly
once, so every counter a scrape sees is monotonically non-decreasing.
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

from . import metrics as obs_metrics
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
             records: int = 0, seconds: float = 0.0, **attrs: Any) -> None:
        """Emit one beat; ``shard`` is a chunk's first index on dispatch."""
        self._seq += 1
        rss_kb, cpu_seconds = _rusage()
        self._deliver(Heartbeat(self._seq, self._pid, time.monotonic(),
                                kind, task, shard, records, seconds,
                                rss_kb, cpu_seconds, attrs))


#: The tallies, served as ``repro_live_<name>``: name -> (label or "",
#: help); a ``_total`` is a counter, the rest high-watermark gauges.
_FAMILIES = {
    "heartbeats_total": ("kind",
                         "Live-plane heartbeats received, by beat kind."),
    "heartbeats_lost_total": (
        "", "Heartbeats dropped in transit (sequence gaps)."),
    "heartbeats_stale_total": ("", "Stale or repeated heartbeats ignored."),
    "runs_total": ("task", "Sharded runs started, per task."),
    "shards_total": ("task", "Shards announced by run starts, per task."),
    "shards_dispatched_total": (
        "task", "Shards submitted to the worker pool, per task."),
    "shards_started_total": ("task", "Shards started, per task."),
    "shards_done_total": ("task", "Shards completed, per task."),
    "records_total": (
        "task", "Records processed by completed shards, per task."),
    "payload_bytes_total": (
        "task", "Serialized shard-spec bytes dispatched, per task."),
    "shards_in_flight": (
        "task", "Shards started but not yet finished, per task."),
    "queue_depth": ("", "Chunk submissions still queued behind this one."),
    "worker_beats_total": ("pid",
                           "Heartbeats accepted, per emitting process."),
    "worker_busy_seconds_total": (
        "pid", "Seconds spent in completed shards, per process."),
    "worker_rss_kb": (
        "pid", "Peak resident set size per worker process (KiB)."),
    "worker_cpu_seconds": ("pid", "User+system CPU time per worker process."),
}

#: ``/run`` task fields and their tallies (every task has in-flight).
_TASK_FIELDS = (("shards_total", "shards_total"),
                ("dispatched", "shards_dispatched_total"),
                ("started", "shards_started_total"),
                ("done", "shards_done_total"),
                ("in_flight", "shards_in_flight"),
                ("records", "records_total"),
                ("payload_bytes", "payload_bytes_total"))


class LiveSink:
    """Folds heartbeats into scrapeable state (thread-safe).

    Keeps a ring of the last ``capacity`` accepted beats, the run's
    timeline, and per family of :data:`_FAMILIES` one tally per label
    value.  ``registry`` is the command's ledger: the metrics registry
    active when the sink is made (the one ``observe()`` installed), or
    ``None``.  ``on_beat(sink, beat)`` (the ``--live`` printer) is
    called after each accepted beat.
    """

    def __init__(self,
                 on_beat: Optional[Callable[["LiveSink", Heartbeat],
                                            None]] = None,
                 capacity: int = 65536) -> None:
        self._lock = threading.Lock()
        self.registry = obs_metrics.ACTIVE
        #: family -> label values (``()`` when unlabeled) -> value.
        self._tallies: Dict[str, Dict[Tuple[str, ...], float]] = {}
        #: Accepted beats not yet tallied: a beat costs two appends, and
        #: a read of the sink (or 4,096 waiting) tallies them in order.
        self._pending: List[Heartbeat] = []
        self._ring: Deque[Heartbeat] = deque(maxlen=capacity)
        self._capacity = capacity
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
        """Accept one heartbeat; stale (re-)deliveries are ignored."""
        with self._lock:
            last = self._last_seq.get(beat.pid, 0)
            if beat.seq <= last:
                self._add("heartbeats_stale_total", (), 1)
                return
            self._last_seq[beat.pid] = beat.seq
            if beat.seq - last > 1:
                self._add("heartbeats_lost_total", (), beat.seq - last - 1)
            self._ring.append(beat)
            self._pending.append(beat)
            if len(self._pending) >= 4096:
                self._tally()
            callback = self.on_beat
        if callback is not None:
            callback(self, beat)

    def _add(self, family: str, key: Tuple[str, ...], amount: float) -> None:
        column = self._tallies.setdefault(family, {})
        column[key] = column.get(key, 0) + amount

    def _tally(self) -> None:
        """Add the pending beats to the tallies, in order (lock held)."""
        add, tallies = self._add, self._tallies
        for beat in self._pending:
            attrs, kind, pid = beat.attrs, beat.kind, (str(beat.pid),)
            add("heartbeats_total", (kind,), 1)
            add("worker_beats_total", pid, 1)
            task = (beat.task,)
            if beat.task and kind == "run_start":
                add("runs_total", task, 1)
                add("shards_total", task, attrs.get("shards", 0))
            elif beat.task and kind == "dispatch":
                add("shards_dispatched_total", task, attrs.get("shards", 0))
                add("payload_bytes_total", task, attrs.get("payload_bytes", 0))
                tallies["queue_depth"] = {(): attrs.get("queue_depth", 0)}
            elif beat.task and kind == "shard_start":
                add("shards_started_total", task, 1)
            elif beat.task and kind == "shard_end":
                add("shards_done_total", task, 1)
                add("records_total", task, beat.records)
                add("worker_busy_seconds_total", pid, beat.seconds)
            if beat.task:
                started = tallies.get("shards_started_total", {}).get(task, 0)
                done = tallies.get("shards_done_total", {}).get(task, 0)
                tallies.setdefault("shards_in_flight", {})[task] = max(
                    0, started - done)
            for family, peak in (("worker_rss_kb", beat.rss_kb),
                                 ("worker_cpu_seconds", beat.cpu_seconds)):
                if peak:
                    column = tallies.setdefault(family, {})
                    column[pid] = max(column.get(pid, peak), peak)
        self._pending.clear()

    # -- snapshots (what the HTTP server and the exporters read) ------------

    def registry_snapshot(self) -> MetricsRegistry:
        """A copy of the command's registry (``merge_from`` copies it safely
        mid-run) plus the ``repro_live_*`` families and uptime."""
        snapshot = MetricsRegistry()
        if self.registry is not None:
            snapshot.merge_from(self.registry)
        with self._lock:
            self._tally()
            for family, column in self._tallies.items():
                label, help = _FAMILIES[family]
                labels = (label,) if label else ()
                name = f"repro_live_{family}"
                instrument = (snapshot.counter(name, help, labels)
                              if family.endswith("_total") else
                              snapshot.gauge(name, help, labels, mode="max"))
                for key, value in column.items():
                    instrument.inc(float(value), *key)
        snapshot.gauge("repro_live_uptime_seconds",
                       "Seconds since the sink started.", mode="max").set(
                           time.monotonic() - self.started)
        return snapshot

    def timeline(self) -> Tuple[List[Heartbeat], int]:
        """The ring's beats, oldest first, and how many it dropped."""
        with self._lock:
            self._tally()
            accepted = sum(self._tallies.get("heartbeats_total", {}).values())
            return list(self._ring), int(accepted) - len(self._ring)

    def run_status(self) -> Dict[str, Any]:
        """The ``/run`` document, rendered from :meth:`registry_snapshot`."""
        registry = self.registry_snapshot()

        def col(name: str, prefix: str = "repro_live_") -> Dict[str, float]:
            """One family's samples keyed by its one label value ("")."""
            instrument = registry.get(prefix + name)
            return {} if instrument is None else {
                key[0] if key else "": value
                for key, value in instrument.samples().items()}

        def total(name: str) -> int:
            return int(sum(col(name).values()))

        tasks = {task: {key: int(col(name).get(task, 0))
                        for key, name in _TASK_FIELDS}
                 for task in sorted(col("shards_in_flight"))}
        busy, rss, cpu, beats = (col(f"worker_{name}") for name in (
            "busy_seconds_total", "rss_kb", "cpu_seconds", "beats_total"))
        workers = {
            pid: {"beats": int(count),
                  "busy_seconds": round(busy.get(pid, 0.0), 6),
                  "rss_kb": int(rss.get(pid, 0)),
                  "cpu_seconds": round(cpu.get(pid, 0.0), 6)}
            for pid, count in sorted(beats.items(),
                                     key=lambda item: int(item[0]))}
        counters = {
            instrument.name: sum(instrument.samples().values())
            for instrument in registry.instruments()
            if isinstance(instrument, Counter) and
            instrument.name.startswith(_STATUS_COUNTER_PREFIXES)}
        calls, seconds = (col(f"{field}_total", "repro_layer_")
                          for field in ("calls", "seconds"))
        accepted = total("heartbeats_total")
        dropped = max(0, accepted - self._capacity)   # the ring's overflow
        stale = total("heartbeats_stale_total")
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "heartbeats": {"received": accepted + stale,
                           "lost": total("heartbeats_lost_total"),
                           "stale": stale},
            "tasks": tasks,
            "workers": workers,
            "counters": counters,
            "layers": {layer: {"calls": int(count),
                               "seconds": round(seconds[layer], 6)}
                       for layer, count in sorted(calls.items())},
            "timeline": {"events": accepted - dropped, "dropped": dropped},
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
