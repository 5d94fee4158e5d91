"""The one timing loop the perf benches share."""

from __future__ import annotations

import time


def best_of_three(modes):
    """Run each of ``modes`` (name -> callable) three times, interleaved
    so that scheduler and cache drift reach every mode alike.

    Returns ``(results, seconds)``: each mode's last result and its
    best-of-3 wall seconds.
    """
    results = {}
    seconds = dict.fromkeys(modes, float("inf"))
    for _ in range(3):
        for name, run in modes.items():
            start = time.perf_counter()
            results[name] = run()
            seconds[name] = min(seconds[name], time.perf_counter() - start)
    return results, seconds
