"""The timing loops the perf benches share."""

from __future__ import annotations

import statistics
import time


def alternating_rounds(modes, rounds):
    """Run ``modes`` (name -> callable) back to back ``rounds`` times,
    their order reversing every round, so drift between rounds and a
    slow round reach every mode alike.

    Returns ``(results, seconds)``: each mode's last result and its wall
    seconds per round, index-aligned: ``seconds[a][i] / seconds[b][i]``
    is round ``i``'s ratio, and their median an estimate that one noisy
    round cannot move.
    """
    results = {}
    seconds = {name: [] for name in modes}
    order = list(modes.items())
    for _ in range(rounds):
        for name, run in order:
            start = time.perf_counter()
            results[name] = run()
            seconds[name].append(time.perf_counter() - start)
        order.reverse()
    return results, seconds


def median_ratio(seconds, numerator, denominator):
    """The median over rounds of one mode's seconds over another's, from
    :func:`alternating_rounds`' per-round seconds."""
    return statistics.median(
        top / bottom
        for top, bottom in zip(seconds[numerator], seconds[denominator]))
