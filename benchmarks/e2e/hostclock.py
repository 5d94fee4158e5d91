"""Host-speed reference for timing on a shared host.

The sandbox this repo is measured in runs on a shared machine whose
effective CPU speed moves by 20-40% in phases that last several seconds
(measured at the seed commit: the same pure-Python loop takes 0.70 ms in
one phase and 0.95 ms in the next, and user+sys CPU time inflates with
it, so ``cpu_us_per_op`` does not survive the neighbour either).  A 6 s
run sits inside one phase, so no statistic *within* a run can remove the
phase, and the run-to-run spread of a raw median is 10-20%.

What does cancel it is a speed reference taken next to the work: a small
fixed interpreter kernel (object allocation, dict stores, bytes
building — the same kind of work the program does) is timed between
slices of the workload, and each slice's wall and CPU time is scaled by
``REF_NOMINAL_S / (reference time around that slice)``.  At the seed
commit this brought the spread of the scan workload's throughput from
9.7% (raw median, same seed, 16 runs) to 2.5%.

Every time-valued metric the harness reports is therefore *host
adjusted*: it is the time the work would have taken on a host that runs
the reference kernel in exactly ``REF_NOMINAL_S``.  The raw sums are
kept in the detail output.  The kernel lives here, outside ``src/``, so
a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Reference-kernel iterations per call; fixes the amount of work.
REF_LOOPS = 400

#: What one kernel call takes in the seed host's fast phase (Python
#: 3.11, 2.1 GHz Xeon).  A pure scale constant: it makes adjusted times
#: read like quiet-host times, and cancels out of every comparison.
REF_NOMINAL_S = 0.00020

#: Kernel calls per sample; the median of them is the sample, so one
#: descheduling stall inside a sample does not skew it.
MIN_CALLS = 3

#: Share of a slice's wall time spent on the reference sample after it.
REF_SHARE = 0.04


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: str, c: tuple) -> None:
        self.a = a
        self.b = b
        self.c = c


def _kernel() -> int:
    table = {}
    for i in range(REF_LOOPS):
        cell = _Cell(i, str(i), (i, i + 1))
        table[cell.b] = cell
        buf = bytearray()
        buf += i.to_bytes(4, "big")
        buf += cell.b.encode()
    return len(table)


def sample(budget_s: float = 0.0) -> float:
    """Seconds one kernel call takes right now (median of >= 3 calls).

    ``budget_s`` asks for roughly that much wall time of sampling, so a
    long slice gets a proportionally better reference than a short one.
    """
    calls = max(MIN_CALLS, int(budget_s / REF_NOMINAL_S))
    times: List[float] = []
    now = time.perf_counter
    _kernel()  # untimed: the slice before left the caches cold
    for _ in range(calls):
        start = now()
        _kernel()
        times.append(now() - start)
    return statistics.median(times)


def factor(ref_before_s: float, ref_after_s: float) -> float:
    """Multiplier that turns a raw duration into a host-adjusted one."""
    return REF_NOMINAL_S / ((ref_before_s + ref_after_s) / 2.0)
