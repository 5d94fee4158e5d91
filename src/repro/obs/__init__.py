"""``repro.obs`` — query-lifecycle tracing and metrics (zero-dependency).

The observability layer is strictly out-of-band, like
:class:`~repro.engine.executor.ShardStats`: experiment outputs are
byte-identical whether it is enabled or not, and a disabled registry or
tracer costs one global load per instrumented call site.  Each collector
answers one question and has one on-disk form:

- :mod:`repro.obs.metrics` — *how many?*  A process-local
  :class:`MetricsRegistry` of named counters, gauges and histograms with
  label support, mergeable across engine shards exactly like
  ``ReplayPartial``; exported as Prometheus text.
- :mod:`repro.obs.trace` — *which path did one query take, and which
  layer did the time go to?*  Span tracing (``tracer.span("resolve",
  qname=...)``, monotonic-clock timing, parent/child span IDs) forming
  per-query DNS lifecycle traces, exported as span JSONL; every closed
  span also books its self time in the tracer's per-name ledger, which
  ``--report`` prints and a registry exports as ``repro_layer_*``.
- :mod:`repro.obs.live` — *where did the run's wall time go across
  workers?*  Loss-tolerant heartbeats stream from pool workers into a
  :class:`~repro.obs.live.LiveSink` whose bounded ring of beats, the
  timeline, is exported as Chrome trace-event JSON.

Around them: :mod:`repro.obs.export` holds the three writers and the
atomic text-file helper they share, and :mod:`repro.obs.server` the
stdlib HTTP scrape endpoint (``/metrics``, ``/healthz``, ``/run``).

Each of ``metrics``, ``trace`` and ``live`` has one ``ACTIVE`` slot that
instrumented code reads and one setter, ``swap(x) -> previous``.  This
package imports only ``metrics`` and ``trace`` — what every instrumented
module reads; import ``live``, ``export`` and ``server`` by module
path where they are used, so a pool worker never loads ``http.server``
for flags it never got.

See ``docs/observability.md`` for the instrument catalogue, the live
plane's heartbeat protocol and how to read a query trace.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from . import metrics as _metrics
from . import trace as _trace
from .metrics import MetricsRegistry
from .trace import DEFAULT_SPAN_LIMIT, Tracer

__all__ = ["MetricsRegistry", "ObsSession", "Tracer", "observe"]


class ObsSession:
    """One activation of metrics and/or tracing (see :func:`observe`)."""

    def __init__(self, registry: Optional[MetricsRegistry],
                 tracer: Optional[Tracer]) -> None:
        self.registry = registry
        self.tracer = tracer


@contextmanager
def observe(metrics: bool = True, tracing: bool = False,
            span_limit: int = DEFAULT_SPAN_LIMIT) -> Iterator[ObsSession]:
    """Enable collection for a block; restores the previous state after.

    ``span_limit`` is the tracer's ``limit`` (``0``: keep the ledger only).

    The yielded :class:`ObsSession` keeps the registry/tracer so callers
    can export after the block exits::

        with observe(metrics=True, tracing=True) as session:
            run_experiment()
        write_prometheus(session.registry, "metrics.prom")
        write_spans_jsonl(session.tracer.spans, "trace.jsonl")
    """
    registry = MetricsRegistry() if metrics else None
    tracer = Tracer(limit=span_limit) if tracing else None
    previous_registry = _metrics.swap(registry) if metrics else None
    previous_tracer = _trace.swap(tracer) if tracing else None
    try:
        yield ObsSession(registry, tracer)
    finally:
        if metrics:
            _metrics.swap(previous_registry)
        if tracing:
            _trace.swap(previous_tracer)
