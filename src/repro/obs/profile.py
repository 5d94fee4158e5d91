"""cProfile hook: run any task and report top cumulative functions.

:func:`profile_call` is the generic wrapper the CLI's ``--profile`` flag
uses — it runs a callable (typically a whole sharded command) under
:mod:`cProfile` and renders the hottest functions by cumulative time.

Profiling is strictly observational: the wrapped callable's return value
passes through untouched, so profiled runs keep producing byte-identical
experiment outputs (only slower).
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any, Callable, Dict, List, Tuple

#: Rows shown in a rendered profile report.
DEFAULT_TOP = 25


def render_stats(profile: cProfile.Profile, top_n: int = DEFAULT_TOP,
                 title: str = "profile") -> str:
    """Top-``top_n`` functions by cumulative time, as an aligned report.

    Rows sort by ``(cumulative time desc, location asc)`` — the
    location tiebreak makes ordering stable where ``pstats`` leaves
    equal-time entries in hash order, so the same profile renders
    identically on every platform and Python build.
    """
    stats_map: Dict[Tuple[str, int, str], Any] = getattr(
        pstats.Stats(profile), "stats", {})
    rows: List[Tuple[float, float, int, int, str]] = []
    for (filename, lineno, funcname), entry in stats_map.items():
        calls, primitive, tottime, cumtime = (int(entry[0]), int(entry[1]),
                                              float(entry[2]),
                                              float(entry[3]))
        rows.append((cumtime, tottime, calls, primitive,
                     f"{filename}:{lineno}({funcname})"))
    rows.sort(key=lambda row: (-row[0], row[4]))
    lines = [f"[profile] {title} — top {top_n} by cumulative time",
             f"{'cumtime':>10} {'tottime':>10} {'ncalls':>12}  function"]
    for cumtime, tottime, calls, primitive, location in rows[:top_n]:
        ncalls = str(calls) if calls == primitive \
            else f"{calls}/{primitive}"
        lines.append(f"{cumtime:10.6f} {tottime:10.6f} {ncalls:>12}  "
                     f"{location}")
    lines.append(f"({len(rows)} functions total)")
    return "\n".join(lines)


def profile_call(fn: Callable[..., Any], *args: Any,
                 top_n: int = DEFAULT_TOP, title: str = "profile",
                 **kwargs: Any) -> Tuple[Any, str]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, report)`` where ``report`` is the rendered
    top-cumulative-functions table.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, render_stats(profile, top_n=top_n, title=title)
