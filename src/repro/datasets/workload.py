"""Workload models and the column streams the trace builders emit.

DNS query streams are famously skewed; the generators here provide the
standard building blocks — Zipf-distributed name popularity and Poisson
arrivals — that the four trace builders compose, and the two helpers
every builder's column stream shares: cutting a run of rows into chunks
and reading a stream back as records.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import (Any, Callable, Iterable, Iterator, List, Sequence,
                    TypeVar)

R = TypeVar("R")

#: Most rows a builder's column stream (``iter_shard_columns``) puts in
#: one chunk.  Write throughput is flat from 1,024 rows to 16,384
#: (``docs/performance.md`` has the sweep on ``trace_write``); at this
#: size a chunk's value lists stay a few hundred KiB, far under one row
#: group, so a worker's peak RSS does not depend on it.
COLUMN_CHUNK_ROWS = 4096


def split_columns(columns: Sequence[List[Any]]) -> Iterator[List[List[Any]]]:
    """One run of rows, given one list per column, as chunks of 1 to
    :data:`COLUMN_CHUNK_ROWS` rows; an empty run yields nothing."""
    for start in range(0, len(columns[0]), COLUMN_CHUNK_ROWS):
        yield [values[start:start + COLUMN_CHUNK_ROWS] for values in columns]


def column_records(record_type: Callable[..., R],
                   chunks: Iterable[Sequence[Sequence[Any]]]) -> Iterator[R]:
    """The record view of a column stream: same rows, same order."""
    for chunk in chunks:
        yield from map(record_type, *chunk)


class ZipfSampler:
    """Samples ranks 0..n-1 with probability ∝ 1/(rank+1)^alpha.

    Uses an inverse-CDF table, so sampling is O(log n) and exactly
    reproducible from the caller's ``random.Random``.
    """

    def __init__(self, n: int, alpha: float = 1.0):
        if n <= 0:
            raise ValueError("ZipfSampler needs n >= 1")
        self.n = n
        self.alpha = alpha
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> int:
        """Draw one rank."""
        return bisect_left(self._cdf, rng.random(), 0, self.n - 1)

    def ranks(self, uniforms: Iterable[float]) -> List[int]:
        """The rank :meth:`sample` returns for each of ``uniforms``, one
        C-level search per value over the same table and bounds."""
        return list(map(bisect_left, repeat(self._cdf[:-1]), uniforms))


def poisson_arrivals(rate_per_s: float, duration_s: float,
                     rng: random.Random,
                     start: float = 0.0) -> List[float]:
    """Event timestamps of a Poisson process over [start, start+duration)."""
    if rate_per_s <= 0:
        return []
    ts: List[float] = []
    t = start
    end = start + duration_s
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= end:
            return ts
        ts.append(t)


@dataclass
class SldPolicy:
    """Per-SLD authoritative behavior: TTL and the ECS scope it returns."""

    ttl: int
    scope: int
