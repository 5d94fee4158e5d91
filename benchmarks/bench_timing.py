"""The timing loops the perf benches share."""

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


def alternating_rounds(modes, rounds):
    """Run two ``modes`` (name -> callable) back to back ``rounds``
    times, their order flipping every round, so drift between rounds
    and a slow round reach both alike.

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
