"""Root-server (DITL-like) trace generator.

Section 6.1 closes with a check for the grossest probing violation: sending
ECS to the root servers, which RFC 7871 rules out.  Analyzing a day of
A-root DITL data, the paper finds 15 such resolvers.  This generator emits a
root-trace with a configurable violator count buried in ordinary traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..engine.seeding import derive_seed
from ..engine.sharding import shard_bounds
from .records import RootQueryRecord
from .workload import merge_sorted_records, poisson_arrivals

_TLDS = ("com.", "net.", "org.", "io.", "de.", "cn.", "uk.", "jp.", "br.")


@dataclass
class RootTrace:
    """Generated root-server log plus ground truth."""

    records: List[RootQueryRecord]
    violator_ips: List[str]


def generate_root_trace(resolver_count: int = 400, violators: int = 15,
                        duration_s: float = 3600.0, seed: int = 0,
                        mean_qps: float = 0.01) -> RootTrace:
    """A root-server trace where ``violators`` resolvers attach ECS.

    Ordinary resolvers send priming/NS/TLD queries without ECS; the
    violators attach ECS to (some of) their queries, as the 15 resolvers in
    the DITL data did.
    """
    if violators > resolver_count:
        raise ValueError("more violators than resolvers")
    rng = random.Random(seed)
    records: List[RootQueryRecord] = []
    violator_ips: List[str] = []
    for i in range(resolver_count):
        ip = f"77.{(i >> 8) & 0xFF}.{i & 0xFF}.53"
        is_violator = i < violators
        if is_violator:
            violator_ips.append(ip)
        rate = mean_qps * rng.uniform(0.3, 3.0)
        for ts in poisson_arrivals(rate, duration_s, rng) or \
                [rng.uniform(0, duration_s)]:
            qname = rng.choice(_TLDS)
            qtype = rng.choice((2, 1, 28))
            has_ecs = is_violator and rng.random() < 0.8
            records.append(RootQueryRecord(ts, ip, qname, qtype, has_ecs))
        if is_violator and not any(r.resolver_ip == ip and r.has_ecs
                                   for r in records):
            records.append(RootQueryRecord(rng.uniform(0, duration_s), ip,
                                           "com.", 1, True))
    records.sort(key=lambda r: r.ts)
    return RootTrace(records, violator_ips)


def count_root_ecs_violators(records: List[RootQueryRecord]) -> int:
    """Resolvers sending at least one ECS query to the root."""
    return len({r.resolver_ip for r in records if r.has_ecs})


class RootTraceBuilder:
    """Shardable builder form of :func:`generate_root_trace`.

    ``build()`` is the legacy sequential generator; ``build_shard`` /
    ``assemble`` let :mod:`repro.engine` spread the resolver universe
    across workers.  A resolver's violator status depends only on its
    index, so ground truth is identical under any shard decomposition.
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

    def build(self) -> RootTrace:
        """The legacy single-stream generator (unchanged semantics)."""
        return generate_root_trace(self.resolver_count, self.violators,
                                   self.duration_s, self.seed,
                                   self.mean_qps)

    def shard_units(self) -> int:
        """The unit universe sharded over: resolvers."""
        return self.resolver_count

    def iter_shard(self, shard_index: int,
                   shard_count: int) -> Iterator[RootQueryRecord]:
        """Stream one resolver range's queries, in emission order.

        Resolver-major (not globally ts-sorted): :meth:`build_shard`
        is this stream, stably sorted.
        """
        lo, hi = shard_bounds(self.resolver_count, shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        for i in range(lo, hi):
            ip = self._resolver_ip(i)
            is_violator = i < self.violators
            rate = self.mean_qps * rng.uniform(0.3, 3.0)
            sent_ecs = False
            for ts in poisson_arrivals(rate, self.duration_s, rng) or \
                    [rng.uniform(0, self.duration_s)]:
                qname = rng.choice(_TLDS)
                qtype = rng.choice((2, 1, 28))
                has_ecs = is_violator and rng.random() < 0.8
                sent_ecs = sent_ecs or has_ecs
                yield RootQueryRecord(ts, ip, qname, qtype, has_ecs)
            if is_violator and not sent_ecs:
                yield RootQueryRecord(rng.uniform(0, self.duration_s),
                                      ip, "com.", 1, True)

    def build_shard(self, shard_index: int,
                    shard_count: int) -> List[RootQueryRecord]:
        """Emit the streams of one contiguous resolver-index range."""
        records = list(self.iter_shard(shard_index, shard_count))
        records.sort(key=lambda r: r.ts)
        return records

    def assemble(self,
                 shard_records: Sequence[List[RootQueryRecord]]) -> RootTrace:
        """Order-stable merge of shard outputs into a full trace."""
        records = merge_sorted_records(shard_records)
        violator_ips = [self._resolver_ip(i) for i in range(self.violators)]
        return RootTrace(records, violator_ips)
