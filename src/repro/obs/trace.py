"""Lightweight span tracing for query-lifecycle provenance.

A :class:`Tracer` collects :class:`Span` records — named, attributed,
monotonic-clock-timed intervals with parent/child IDs — from anywhere in
the process via a thread of nested ``with tracer.span(...)`` blocks.
Instrumented library code reads the module-level :data:`ACTIVE` slot
(set only through :func:`swap`) and skips the span when it is ``None``,
so tracing that is switched off costs one global load per call site.

Span identity is deterministic: IDs are ``<prefix>-<seq>`` with a
per-tracer sequence, and the shard executor gives each shard's tracer a
``s<shard_index>`` prefix before merging span lists in shard order —
span *topology* is therefore identical for any worker count (only the
wall-clock timestamps vary, and those never feed experiment reports).

The DNS query lifecycle is expressed purely through span nesting and
attributes: a client's ``query`` span parents the resolver's
``cache_lookup`` (attrs: hit), a miss parents ``forward`` and
``authoritative`` spans (attrs: ECS scope in/out, TCP fallback), and
:func:`repro.obs.export.write_spans_jsonl` streams the finished spans as
one JSON object per line.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
    """Collects spans; nesting is tracked per tracer (single-threaded).

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
        self._seq = itertools.count(1)
        #: (trace_id, span_id) of the open spans, outermost first.
        self._stack: List[Tuple[str, str]] = []

    # -- ids ----------------------------------------------------------------

    def _next_id(self) -> str:
        return f"{self.id_prefix}-{next(self._seq)}"

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span; yields the (mutable) record for extra attrs.

        The record is appended on exit, so ``tracer.spans`` is ordered
        by *completion* — children precede their parents, exactly the
        order a depth-first lifecycle walk finishes in.
        """
        span_id = self._next_id()
        parent = self._stack[-1] if self._stack else None
        trace_id = parent[0] if parent else span_id
        record = Span(trace_id, span_id, parent[1] if parent else None,
                      name, time.monotonic(), 0.0, attrs)
        self._stack.append((trace_id, span_id))
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.monotonic()
            self._store(record)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span under the current parent."""
        span_id = self._next_id()
        parent = self._stack[-1] if self._stack else None
        now = time.monotonic()
        record = Span(parent[0] if parent else span_id, span_id,
                      parent[1] if parent else None, name, now, now, attrs)
        self._store(record)
        return record

    def _store(self, record: Span) -> None:
        if len(self.spans) < self.limit:
            self.spans.append(record)
        else:
            self.dropped += 1

    # -- merging ------------------------------------------------------------

    def absorb(self, spans: List[Span], dropped: int = 0) -> None:
        """Append shard spans (already uniquely prefixed) in order."""
        room = self.limit - len(self.spans)
        if room >= len(spans):
            self.spans.extend(spans)
        else:
            self.spans.extend(spans[:max(0, room)])
            self.dropped += len(spans) - max(0, room)
        self.dropped += dropped


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
