"""Span tracing for query-lifecycle provenance, and the run's cost ledger.

A :class:`Tracer` collects :class:`Span` records — named, attributed,
monotonic-clock-timed intervals with parent/child IDs — from anywhere in
the process via a thread of nested ``with tracer.span(...)`` blocks.
Instrumented library code reads the module-level :data:`ACTIVE` slot
(set only through :func:`swap`) and skips the span when it is ``None``,
so tracing that is switched off costs one global load per call site.
Every closed span also books one call and its *self* time (duration
minus child spans) per span name in the tracer's ledger, so the self
times of a span tree sum to its root's duration; ``limit=0`` makes an
aggregate-only tracer that stores no span and keeps only the ledger.

Span identity is deterministic: IDs are ``<prefix>-<seq>`` with a
per-tracer sequence, and the shard executor gives each shard's tracer a
``s<shard_index>`` prefix before merging spans and ledgers in shard
order — span *topology* and ledger call counts are therefore identical
for any worker count (only wall-clock times vary, and those never feed
experiment reports).  The DNS query lifecycle is expressed purely
through span nesting and attributes (``docs/observability.md``), and
:func:`repro.obs.export.write_spans_jsonl` streams finished spans as one
JSON object per line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry

#: Spans kept per tracer before further spans are counted but not stored
#: (a memory backstop for long runs with tracing left on).
DEFAULT_SPAN_LIMIT = 500_000


@dataclass(slots=True)
class Span:
    """One finished (or zero-duration event) span."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "name": self.name,
                "start": self.start, "end": self.end,
                "duration": self.duration, **{f"attr_{k}": v for k, v
                                              in self.attrs.items()}}


class Tracer:
    """Collects spans and their ledger; nesting is tracked per tracer
    (single-threaded).

    ``id_prefix`` namespaces span/trace IDs so shard tracers merge
    without collisions.  ``limit`` bounds stored spans; the overflow
    count is reported by :attr:`dropped`.
    """

    def __init__(self, id_prefix: str = "t",
                 limit: int = DEFAULT_SPAN_LIMIT) -> None:
        self.id_prefix = id_prefix
        self.limit = limit
        self.spans: List[Span] = []
        self.dropped = 0
        #: Span name -> [calls, self seconds] of the spans closed here.
        self.totals: Dict[str, List[float]] = {}
        #: The same, of the shard tracers folded in by :meth:`absorb`.
        self.absorbed: Dict[str, List[float]] = {}
        self._seq = 0
        #: The open spans, outermost first.
        self._stack: List[_Open] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> "_Open":
        """Open a span: ``with tracer.span(...) as record`` yields the
        (mutable) record for extra attrs.

        The record is appended on exit, so ``tracer.spans`` is ordered
        by *completion* — children precede their parents, exactly the
        order a depth-first lifecycle walk finishes in.
        """
        self._seq += 1
        span_id = f"{self.id_prefix}-{self._seq}"
        parent = self._stack[-1].record if self._stack else None
        return _Open(self, Span(
            parent.trace_id if parent else span_id, span_id,
            parent.span_id if parent else None, name, time.monotonic(), 0.0,
            attrs))

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span under the current parent."""
        self._seq += 1
        span_id = f"{self.id_prefix}-{self._seq}"
        parent = self._stack[-1].record if self._stack else None
        now = time.monotonic()
        record = Span(parent.trace_id if parent else span_id, span_id,
                      parent.span_id if parent else None, name, now, now,
                      attrs)
        self._close(record, 0.0)
        return record

    def _close(self, record: Span, self_seconds: float) -> None:
        """Book a finished span in the ledger; store it if there is room."""
        total = self.totals.setdefault(record.name, [0, 0.0])
        total[0] += 1
        total[1] += self_seconds
        if len(self.spans) < self.limit:
            self.spans.append(record)
        else:
            self.dropped += 1

    # -- merging ------------------------------------------------------------

    def absorb(self, shard: "Tracer", inline: bool = False) -> None:
        """Fold a finished shard tracer in: its spans (already uniquely
        prefixed) append in order, its ledger adds to :attr:`absorbed`.
        ``inline``: it ran here, inside the open span, so its seconds are
        that span's child time."""
        room = max(0, self.limit - len(self.spans))
        self.spans.extend(shard.spans[:room])
        self.dropped += shard.dropped + max(0, len(shard.spans) - room)
        for name, (calls, seconds) in shard.ledger().items():
            total = self.absorbed.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
            if inline and self._stack:
                self._stack[-1].child += seconds

    def ledger(self) -> Dict[str, List[float]]:
        """Span name -> [calls, self seconds] of this tracer's own spans
        and its shards' together."""
        merged: Dict[str, List[float]] = {}
        for source in (self.totals, self.absorbed):
            for name, (calls, seconds) in source.items():
                total = merged.setdefault(name, [0, 0.0])
                total[0] += calls
                total[1] += seconds
        return merged

    def publish(self, registry: MetricsRegistry) -> None:
        """Add the spans closed here to ``registry``'s ``repro_layer_*``
        counters (absorbed shards' spans arrive in shard registries)."""
        if not self.totals:
            return
        calls = registry.counter("repro_layer_calls_total",
                                 "Spans closed, by span name.", ("layer",))
        seconds = registry.counter(
            "repro_layer_seconds_total",
            "Span self seconds (duration minus child spans), by span name.",
            ("layer",))
        for name, (count, self_seconds) in sorted(self.totals.items()):
            calls.inc(count, name)
            seconds.inc(max(0.0, self_seconds), name)


class _Open:
    """The context manager of one span being recorded: it tracks the
    seconds its child spans took, so closing it books its self time."""

    __slots__ = ("tracer", "record", "child")

    def __init__(self, tracer: Tracer, record: Span) -> None:
        self.tracer, self.record, self.child = tracer, record, 0.0

    def __enter__(self) -> Span:
        self.tracer._stack.append(self)
        return self.record

    def __exit__(self, *exc: Any) -> None:
        stack, record = self.tracer._stack, self.record
        stack.pop()
        record.end = time.monotonic()
        duration = record.end - record.start
        if stack:
            stack[-1].child += duration
        self.tracer._close(record, duration - self.child)


# ---------------------------------------------------------------------------
# activation: the process-wide current tracer

#: The active tracer, or ``None`` when tracing is disabled.  Hot-path
#: guards read this slot directly (``trace.ACTIVE is not None``).
ACTIVE: Optional[Tracer] = None


def swap(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (possibly ``None``), returning the previous one."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, tracer
    return previous
