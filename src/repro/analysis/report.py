"""Report formatting: the tables and series the benchmarks print.

The benchmark harness prints each reproduced table/figure as text in the
same row/series structure the paper uses, with a paper-reported column next
to the measured one so the shape comparison is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _fmt(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class Comparison:
    """One paper-vs-measured line item."""

    metric: str
    paper: Cell
    measured: Cell
    note: str = ""


def format_comparisons(items: Sequence[Comparison], title: str) -> str:
    """Render a paper-vs-measured table."""
    return format_table(
        ("metric", "paper", "measured", "note"),
        [(c.metric, c.paper, c.measured, c.note) for c in items],
        title=title)


def format_network_stats(stats, title: str = "Network traffic") -> str:
    """Render a :class:`repro.net.transport.NetworkStats` snapshot.

    Takes the stats object duck-typed (rather than importing the network
    layer) so analysis stays import-light; any object with ``datagrams``,
    ``bytes_sent``, ``timeouts``, ``drops`` and the ``timeout_rate()`` /
    ``drop_rate()`` accessors renders.
    """
    return format_table(
        ("metric", "value"),
        [("datagrams sent", stats.datagrams),
         ("bytes sent", stats.bytes_sent),
         ("timeouts", stats.timeouts),
         ("drops", stats.drops),
         ("faults injected", getattr(stats, "faults_injected", 0)),
         ("timeout rate", f"{stats.timeout_rate():.2%}"),
         ("drop rate", f"{stats.drop_rate():.2%}")],
        title=title)


def cdf_table(series: Dict[str, Sequence[float]],
              quantiles: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
              title: str = "CDF") -> str:
    """Render quantiles of several sorted samples side by side."""
    headers = ["quantile"] + list(series.keys())
    rows: List[List[Cell]] = []
    for q in quantiles:
        row: List[Cell] = [f"p{int(q * 100)}"]
        for values in series.values():
            if not values:
                row.append(None)
                continue
            idx = min(len(values) - 1, max(0, round(q * (len(values) - 1))))
            row.append(float(values[idx]))
        rows.append(row)
    return format_table(headers, rows, title=title)
