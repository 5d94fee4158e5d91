"""Root-server (DITL-like) trace generator.

Section 6.1 closes with a check for the grossest probing violation: sending
ECS to the root servers, which RFC 7871 rules out.  Analyzing a day of
A-root DITL data, the paper finds 15 such resolvers.  This generator emits a
root-trace with a configurable violator count buried in ordinary traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterator, List

from ..engine.seeding import derive_seed
from ..engine.sharding import shard_bounds
from .records import RootQueryRecord
from .workload import column_records, poisson_arrivals, split_columns

_TLDS = ("com.", "net.", "org.", "io.", "de.", "cn.", "uk.", "jp.", "br.")


@dataclass
class RootTrace:
    """Generated root-server log plus ground truth."""

    records: List[RootQueryRecord]
    violator_ips: List[str]


def count_root_ecs_violators(records: List[RootQueryRecord]) -> int:
    """Resolvers sending at least one ECS query to the root."""
    return len({r.resolver_ip for r in records if r.has_ecs})


class RootTraceBuilder:
    """A root-server trace where ``violators`` resolvers attach ECS.

    Ordinary resolvers send priming/NS/TLD queries without ECS; the
    violators attach ECS to (some of) their queries, as the 15 resolvers
    in the DITL data did.  ``build()`` generates the whole trace from the
    root seed; ``iter_shard_columns`` lets :mod:`repro.engine` spread
    the resolver universe across workers.  A resolver's violator status
    depends only on its index, so ground truth is identical under any
    shard decomposition.
    """

    _SEED_NS = "ditl"

    def __init__(self, resolver_count: int = 400, violators: int = 15,
                 duration_s: float = 3600.0, seed: int = 0,
                 mean_qps: float = 0.01):
        if violators > resolver_count:
            raise ValueError("more violators than resolvers")
        self.resolver_count = resolver_count
        self.violators = violators
        self.duration_s = duration_s
        self.seed = seed
        self.mean_qps = mean_qps

    @staticmethod
    def _resolver_ip(i: int) -> str:
        return f"77.{(i >> 8) & 0xFF}.{i & 0xFF}.53"

    def _column_chunks(self, rng: random.Random, lo: int,
                       hi: int) -> Iterator[List[List[Any]]]:
        """The queries of resolvers ``[lo, hi)``, as columns.

        The builder's one row loop.  Resolver-major: each resolver's
        rows are one run (arrivals, then a violator's guaranteed ECS
        query if none of its arrivals drew one), cut into chunks of the
        ``root-trace`` schema's columns; runs overlap in time.  Per row
        the TLD, the qtype and — for a violator — the ECS coin are
        drawn, in that order, after the resolver's whole arrival series.
        """
        duration = self.duration_s
        choice = rng.choice
        for i in range(lo, hi):
            is_violator = i < self.violators
            rate = self.mean_qps * rng.uniform(0.3, 3.0)
            ts = poisson_arrivals(rate, duration, rng) or \
                [rng.uniform(0, duration)]
            qnames: List[str] = []
            qtypes: List[int] = []
            has_ecs: List[bool] = []
            for _ in ts:
                qnames.append(choice(_TLDS))
                qtypes.append(choice((2, 1, 28)))
                has_ecs.append(is_violator and rng.random() < 0.8)
            if is_violator and not any(has_ecs):
                ts.append(rng.uniform(0, duration))
                qnames.append("com.")
                qtypes.append(1)
                has_ecs.append(True)
            yield from split_columns([ts, [self._resolver_ip(i)] * len(ts),
                                      qnames, qtypes, has_ecs])

    def build(self) -> RootTrace:
        """The whole trace from one stream seeded by the root seed."""
        records = list(column_records(RootQueryRecord, self._column_chunks(
            random.Random(self.seed), 0, self.resolver_count)))
        records.sort(key=attrgetter("ts"))
        return RootTrace(records, self._violator_ips())

    def _violator_ips(self) -> List[str]:
        return [self._resolver_ip(i) for i in range(self.violators)]

    # -- sharded generation (repro.engine) ---------------------------------

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        """Stream one resolver range's queries as column chunks.

        Resolver-major, *not* globally ts-sorted: the ``.col`` writer
        holds the chunks as one store and writes it through its stable
        ts order.
        """
        lo, hi = shard_bounds(self.resolver_count, shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        return self._column_chunks(rng, lo, hi)
