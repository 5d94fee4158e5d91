"""Figure-data export: every reproduced figure as a plottable CSV.

The library is plotting-free by design (no third-party dependencies); this
module writes each figure's underlying series in a one-header-row CSV so
any external tool (gnuplot, matplotlib, a spreadsheet) can redraw the
paper's figures from the reproduction's data.  Each file is written
atomically: an interrupted export leaves it absent, or as it was.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from ..obs.export import write_text_atomic
from .cache_sim import cdf_points
from .hidden import HiddenResolverAnalysis
from .mapping_quality import PrefixLengthSeries

PathLike = Union[str, Path]


def _write_rows(path: PathLike, header: Sequence[str],
                rows: Sequence[Sequence]) -> int:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, (text.getvalue(),))
    return len(rows)


def export_fig1(series: Dict[int, List[float]], path: PathLike) -> int:
    """Fig 1 CDF: one (ttl, blow-up, cdf) row per resolver sample."""
    rows = []
    for ttl, values in sorted(series.items()):
        for value, fraction in cdf_points(values):
            rows.append((ttl, f"{value:.4f}", f"{fraction:.4f}"))
    return _write_rows(path, ("ttl_s", "blowup", "cdf"), rows)


def export_fig2(series: Sequence[Tuple[float, float]], path: PathLike) -> int:
    """Fig 2: (client fraction, mean blow-up) rows."""
    rows = [(f"{frac:.2f}", f"{blowup:.4f}") for frac, blowup in series]
    return _write_rows(path, ("client_fraction", "blowup"), rows)


def export_fig3(series: Sequence[Tuple[float, float, float]],
                path: PathLike) -> int:
    """Fig 3: (client fraction, hit rate without ECS, with ECS) rows."""
    rows = [(f"{frac:.2f}", f"{no_ecs:.4f}", f"{with_ecs:.4f}")
            for frac, no_ecs, with_ecs in series]
    return _write_rows(path, ("client_fraction", "hit_rate_no_ecs",
                              "hit_rate_ecs"), rows)


def export_fig45(analysis: HiddenResolverAnalysis, path: PathLike,
                 via_megadns: bool) -> int:
    """Fig 4/5 scatter: one (F-H km, F-R km) row per combination."""
    rows = [(f"{c.f_h_km:.1f}", f"{c.f_r_km:.1f}")
            for c in analysis.split(via_megadns)]
    return _write_rows(path, ("forwarder_hidden_km",
                              "forwarder_recursive_km"), rows)


def export_fig67(series: PrefixLengthSeries, path: PathLike) -> int:
    """Fig 6/7 CDFs: (prefix length, latency ms, cdf) rows."""
    rows = []
    for length, values in sorted(series.latencies_ms.items()):
        for value, fraction in cdf_points(sorted(values)):
            rows.append((length, f"{value:.2f}", f"{fraction:.4f}"))
    return _write_rows(path, ("source_prefix_len", "connect_ms", "cdf"),
                       rows)


# Each figure keyword is the export API docs/reproduction-guide.md names.
def export_all(out_dir: PathLike, *, fig1=None,
               fig2=None,  # repro-lint: disable=RS007 (documented API)
               fig3=None,  # repro-lint: disable=RS007 (documented API)
               hidden: HiddenResolverAnalysis = None,  # repro-lint: disable=RS007 (documented API)
               fig6: PrefixLengthSeries = None,  # repro-lint: disable=RS007 (documented API)
               fig7: PrefixLengthSeries = None,  # repro-lint: disable=RS007 (documented API)
               ) -> List[str]:
    """Write every provided figure's data; returns the file names written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    if fig1 is not None:
        export_fig1(fig1, out / "fig1_blowup_cdf.csv")
        written.append("fig1_blowup_cdf.csv")
    if fig2 is not None:
        export_fig2(fig2, out / "fig2_blowup_vs_clients.csv")
        written.append("fig2_blowup_vs_clients.csv")
    if fig3 is not None:
        export_fig3(fig3, out / "fig3_hit_rate.csv")
        written.append("fig3_hit_rate.csv")
    if hidden is not None:
        export_fig45(hidden, out / "fig4_mp_scatter.csv", True)
        export_fig45(hidden, out / "fig5_nonmp_scatter.csv", False)
        written += ["fig4_mp_scatter.csv", "fig5_nonmp_scatter.csv"]
    if fig6 is not None:
        export_fig67(fig6, out / "fig6_cdn1_cdf.csv")
        written.append("fig6_cdn1_cdf.csv")
    if fig7 is not None:
        export_fig67(fig7, out / "fig7_cdn2_cdf.csv")
        written.append("fig7_cdn2_cdf.csv")
    return written
