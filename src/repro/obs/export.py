"""Exporters: one format and one atomic writer per artefact.

Each collector has exactly one on-disk form — registry → Prometheus
text (:func:`write_prometheus`), tracer → span JSONL
(:func:`write_spans_jsonl`), the live sink's ring of heartbeats →
Chrome trace-event JSON (:func:`write_chrome_trace`) — and every one
of them, like the CLI's report and profile files, reaches disk through
:func:`write_text_atomic`: streamed to ``<name>.tmp`` beside the
destination and renamed into place, so an interrupted run leaves an
artefact absent or complete, never half-written.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text exposition format (``# HELP``/``# TYPE`` headers,
escaped label values, cumulative histogram buckets with ``+Inf`` and
``_sum``/``_count`` series).  Output is fully deterministic: metric
names, label names and label values are emitted in sorted order, so two
registries with equal samples render byte-identically regardless of
insertion order — which is what lets ``--workers 1`` and ``--workers N``
runs produce the same metrics file.

:func:`parse_prometheus` is the matching validator: a small strict
parser used by ``repro-ecs lint --prom`` (rule RS100) and the test suite
to assert that everything we emit is well-formed.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import (IO, Any, Dict, Iterable, Iterator, List, Sequence, Set,
                    Tuple, Union)

from .live import Heartbeat
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span


class AtomicFile:
    """One file written as ``<name>.tmp`` beside ``path``, then either
    renamed over ``path`` (:meth:`commit`) or removed (:meth:`discard`),
    so ``path`` is absent (or as it was) or complete, never half-written.

    The one tmp-then-:func:`os.replace` routine of the artefact writers:
    :func:`write_text_atomic` and
    :class:`~repro.datasets.columnar.GroupedColumnarWriter`.  As a
    context manager it yields the open file, commits on a clean exit and
    discards on an exception.
    """

    def __init__(self, path: Union[str, Path], mode: str = "w") -> None:
        self.path = Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self.file: IO[Any] = open(self._tmp, mode, encoding=(
            None if "b" in mode else "utf-8"))
        self._pending = True

    def commit(self) -> None:
        """Close the temporary and rename it over ``path``."""
        self.file.close()
        os.replace(self._tmp, self.path)
        self._pending = False

    def discard(self) -> None:
        """Close and remove the temporary; a no-op once committed."""
        if self._pending:
            self._pending = False
            self.file.close()
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> IO[Any]:
        return self.file

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        try:
            if exc_type is None:
                self.commit()
        finally:
            self.discard()


def write_text_atomic(path: Union[str, Path],
                      chunks: Iterable[str]) -> Path:
    """Stream ``chunks`` to ``path`` (parents created) through an
    :class:`AtomicFile`: if the iterable or a write raises, the
    temporary is removed and whatever ``path`` held before is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with AtomicFile(path) as fh:
        fh.writelines(chunks)
    return path


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\"", r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels(names: Sequence[str], values: Sequence[str],
            extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(zip(names, (str(v) for v in values))) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"'
                    for k, v in sorted(pairs))
    return "{" + body + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        labelnames = instrument.labelnames
        if isinstance(instrument, (Counter, Gauge)):
            for key in sorted(instrument.samples()):
                lines.append(f"{name}{_labels(labelnames, key)} "
                             f"{_format_value(instrument.samples()[key])}")
        elif isinstance(instrument, Histogram):
            for key in sorted(instrument.samples()):
                counts, total, count = instrument.samples()[key]
                cumulative = 0
                for bound, bucket in zip(instrument.buckets, counts):
                    cumulative += bucket
                    le = (("le", _format_value(float(bound))),)
                    lines.append(
                        f"{name}_bucket{_labels(labelnames, key, le)} "
                        f"{cumulative}")
                cumulative += counts[-1]
                lines.append(f"{name}_bucket"
                             f"{_labels(labelnames, key, (('le', '+Inf'),))} "
                             f"{cumulative}")
                lines.append(f"{name}_sum{_labels(labelnames, key)} "
                             f"{_format_value(total)}")
                lines.append(f"{name}_count{_labels(labelnames, key)} "
                             f"{count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry,
                     path: Union[str, Path]) -> Path:
    """Write the Prometheus rendering to ``path`` (atomically)."""
    return write_text_atomic(path, (to_prometheus(registry),))


# ---------------------------------------------------------------------------
# Prometheus text-format validation (the linter's engine)


def _parse_labels(body: str, lineno: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq].strip()
        if not name.replace("_", "a").isalnum():
            raise ValueError(f"line {lineno}: bad label name {name!r}")
        if body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: unquoted label value")
        j = eq + 2
        value_chars: List[str] = []
        while j < len(body):
            ch = body[j]
            if ch == "\\":
                value_chars.append(body[j:j + 2])
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        labels[name] = "".join(value_chars)
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return labels


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Strictly parse Prometheus text format; raises ``ValueError``.

    Returns ``{metric_family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}``.  Validation covers: every sample
    belongs to a declared family, ``TYPE`` precedes samples and is
    declared at most once per family (a duplicate means two scrape
    bodies were concatenated), histogram families expose
    ``_bucket``/``_sum``/``_count`` series, bucket counts are
    cumulative, and values parse as numbers.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None,
                                       "samples": []})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            family_info = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if family_info["type"] is not None:
                # A family declared twice is the signature of two scrape
                # bodies concatenated together — reject it loudly rather
                # than silently merging inconsistent series.
                raise ValueError(f"line {lineno}: duplicate # TYPE for "
                                 f"{name!r}")
            family_info["type"] = kind
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name = line[:line.index("{")]
            body = line[line.index("{") + 1:line.rindex("}")]
            labels = _parse_labels(body, lineno)
            value_text = line[line.rindex("}") + 1:].strip()
        else:
            name, _, value_text = line.partition(" ")
            labels = {}
            value_text = value_text.strip()
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in families:
                family = name[:-len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {name!r} has no "
                             f"# TYPE declaration")
        if family != name and families[family]["type"] != "histogram":
            raise ValueError(f"line {lineno}: suffixed sample {name!r} on "
                             f"non-histogram family {family!r}")
        if value_text == "+Inf":
            value = math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(f"line {lineno}: bad sample value "
                                 f"{value_text!r}") from None
        families[family]["samples"].append((name, labels, value))

    for family, info in families.items():
        if info["type"] is None:
            raise ValueError(f"family {family!r} has samples but no # TYPE")
        if info["type"] == "histogram":
            _check_histogram_family(family, info["samples"])
    return families


LabelPairs = Tuple[Tuple[str, str], ...]


def _check_histogram_family(
        family: str,
        samples: List[Tuple[str, Dict[str, str], float]]) -> None:
    by_labels: Dict[LabelPairs, List[Tuple[float, float]]] = {}
    seen_sum: Set[LabelPairs] = set()
    seen_count: Set[LabelPairs] = set()
    for name, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        if name == f"{family}_bucket":
            if "le" not in labels:
                raise ValueError(f"{family}: bucket sample without le label")
            le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
            by_labels.setdefault(key, []).append((le, value))
        elif name == f"{family}_sum":
            seen_sum.add(key)
        elif name == f"{family}_count":
            seen_count.add(key)
    for key, buckets in by_labels.items():
        buckets.sort()
        if not buckets or buckets[-1][0] != math.inf:
            raise ValueError(f"{family}: missing +Inf bucket for {key}")
        counts = [c for _, c in buckets]
        if counts != sorted(counts):
            raise ValueError(f"{family}: non-cumulative buckets for {key}")
        if key not in seen_sum or key not in seen_count:
            raise ValueError(f"{family}: missing _sum/_count for {key}")


# ---------------------------------------------------------------------------
# Span JSONL and Chrome-trace timelines


def write_spans_jsonl(spans: Sequence[Span], path: Union[str, Path],
                      dropped: int = 0) -> Path:
    """Write one JSON object per span, in the given (completion) order.

    The trailing summary line (``{"event": "tracer_summary", ...}``)
    records the span and overflow counts so a truncated trace is
    self-describing.  Lines stream to disk one at a time: a full tracer
    (500k spans) is never rendered as one string.
    """
    def lines() -> Iterator[str]:
        for span in spans:
            yield json.dumps(span.as_dict(), sort_keys=True) + "\n"
        yield json.dumps({"event": "tracer_summary", "spans": len(spans),
                          "dropped": dropped}, sort_keys=True) + "\n"

    return write_text_atomic(path, lines())


def to_chrome_trace(beats: Sequence[Heartbeat],
                    dropped: int = 0) -> Dict[str, Any]:
    """Render heartbeats as a Chrome trace-event JSON document.

    The ``{"traceEvents": [...]}`` form ``chrome://tracing`` and
    Perfetto (https://ui.perfetto.dev) open directly.  A beat with
    ``seconds > 0`` becomes a complete event (``"ph": "X"``) covering
    ``[ts - seconds, ts)`` on its pid's track, any other beat a
    thread-scoped instant (``"ph": "i"``).  Timestamps rebase to the
    earliest event and convert to microseconds, so the document is valid
    whatever the monotonic clock's epoch; events order by ``(ts, kind,
    name)``.  ``otherData`` records the event count and ``dropped``, the
    ring's overflow, so a truncated timeline is self-describing.
    """
    rows = []
    for beat in beats:
        name = beat.task or beat.kind
        if beat.shard is not None:
            name = f"{name}[{beat.shard}]"
        start = beat.ts - beat.seconds if beat.seconds > 0 else beat.ts
        rows.append((start, beat.kind, name, beat))
    base = min((row[0] for row in rows), default=0.0)
    trace_events: List[Dict[str, Any]] = []
    for start, kind, name, beat in sorted(rows, key=lambda r: r[:3]):
        args: Dict[str, Any] = dict(sorted(beat.attrs.items()))
        if beat.records:
            args["records"] = beat.records
        if beat.shard is not None:
            args["shard"] = beat.shard
        doc: Dict[str, Any] = {"name": name, "cat": kind, "pid": beat.pid,
                               "tid": beat.pid,
                               "ts": round((start - base) * 1e6, 3),
                               "args": args}
        if beat.seconds > 0:
            doc.update(ph="X", dur=round(beat.seconds * 1e6, 3))
        else:
            doc.update(ph="i", s="t")
        trace_events.append(doc)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"events": len(trace_events), "dropped": dropped}}


def write_chrome_trace(beats: Sequence[Heartbeat],
                       path: Union[str, Path], dropped: int = 0) -> Path:
    """Write the timeline's Chrome trace-event rendering to ``path``."""
    document = json.dumps(to_chrome_trace(beats, dropped), sort_keys=True)
    return write_text_atomic(path, (document, "\n"))
