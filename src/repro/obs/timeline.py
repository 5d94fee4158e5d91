"""Run timelines: lifecycle events in a ring buffer, one export format.

A :class:`Timeline` records :class:`TimelineEvent` objects — run,
dispatch, shard and worker lifecycle moments fed by the live heartbeat
sink (:mod:`repro.obs.live`) — in a bounded ring buffer, so a very long
run can never grow the parent's memory without bound; overflow is
counted, not silently lost.

The one export format is **Chrome trace-event JSON**
(:func:`to_chrome_trace`, written to disk by
:func:`repro.obs.export.write_chrome_trace`) — the
``{"traceEvents": [...]}`` document that ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev) open directly: events with a duration
render as complete (``"ph": "X"``) slices per worker pid, instants as
thread-scoped markers, which gives a flamegraph-style view of shard
occupancy across workers.  Its ``otherData`` object records the event
and overflow counts, so a truncated timeline is self-describing (as the
``tracer_summary`` line makes a span file).

Timestamps are ``time.monotonic()`` seconds (system-wide on Linux, so
parent and worker clocks agree); the Chrome export rebases them to the
earliest event and converts to microseconds as the format requires.
Everything here is out-of-band observability — experiment outputs never
depend on whether a timeline was recorded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

#: Default ring-buffer capacity; at one event per shard boundary this
#: covers runs tens of thousands of shards deep before dropping.
DEFAULT_TIMELINE_CAPACITY = 65536


@dataclass
class TimelineEvent:
    """One lifecycle moment (or slice, when ``dur`` is set).

    ``ts`` is the event's *start* in ``time.monotonic()`` seconds;
    ``dur`` (seconds) turns the event into a slice covering
    ``[ts, ts + dur)``.  ``attrs`` carries free-form context (queue
    depth, payload bytes, record counts) and is exported as the event's
    ``args``.
    """

    ts: float
    kind: str
    name: str
    pid: int = 0
    shard: Optional[int] = None
    dur: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class Timeline:
    """A bounded event buffer with overflow accounting.

    Appends past ``capacity`` evict the oldest event (ring semantics);
    :attr:`dropped` reports how many were lost so exports can say so.
    """

    def __init__(self, capacity: int = DEFAULT_TIMELINE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("timeline capacity must be >= 1")
        self.capacity = capacity
        self.seen = 0
        self._events: Deque[TimelineEvent] = deque(maxlen=capacity)

    def add(self, event: TimelineEvent) -> None:
        self.seen += 1
        self._events.append(event)

    @property
    def dropped(self) -> int:
        return max(0, self.seen - len(self._events))

    def events(self) -> List[TimelineEvent]:
        """The retained events, oldest first (a copy; safe to hold)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


# ---------------------------------------------------------------------------
# Chrome trace-event export (Perfetto / chrome://tracing).


def to_chrome_trace(events: Sequence[TimelineEvent],
                    dropped: int = 0) -> Dict[str, Any]:
    """Render events as a Chrome trace-event JSON document.

    Slices (events with ``dur``) become complete events (``"ph": "X"``)
    on a per-pid track; instants become thread-scoped markers
    (``"ph": "i"``).  Timestamps rebase to the earliest event and
    convert to microseconds, so the document is valid regardless of the
    monotonic clock's epoch.  Output ordering is deterministic:
    ``(ts, kind, name)``.  ``dropped`` is the ring's overflow count
    (:attr:`Timeline.dropped`), reported under ``otherData``.
    """
    base = min((event.ts for event in events), default=0.0)
    trace_events: List[Dict[str, Any]] = []
    for event in sorted(events, key=lambda e: (e.ts, e.kind, e.name)):
        args: Dict[str, Any] = dict(sorted(event.attrs.items()))
        if event.shard is not None:
            args["shard"] = event.shard
        doc: Dict[str, Any] = {
            "name": event.name or event.kind,
            "cat": event.kind,
            "pid": event.pid,
            "tid": event.pid,
            "ts": round((event.ts - base) * 1e6, 3),
            "args": args,
        }
        if event.dur is not None:
            doc["ph"] = "X"
            doc["dur"] = round(max(0.0, event.dur) * 1e6, 3)
        else:
            doc["ph"] = "i"
            doc["s"] = "t"
        trace_events.append(doc)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"events": len(trace_events), "dropped": dropped}}
