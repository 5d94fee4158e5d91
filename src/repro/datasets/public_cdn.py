"""Generator for the Public Resolver/CDN dataset (section 4).

The real dataset: 3 busy hours of ECS queries from a major public DNS
service (2 370 egress resolver IPs, heterogeneous per-IP volumes) to a major
CDN's authoritative nameservers.  Every query carries ECS, every response a
non-zero scope, and the CDN always returns a 20-second TTL — the exact
inputs the Fig 1 cache-blow-up replay needs.

Per-resolver heterogeneity is the load-bearing property: busy egress
resolvers serve clients from many /24s concurrently (high blow-up), idle
ones from few (blow-up near 1), producing Fig 1's wide CDF.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterator, List

from ..engine.seeding import derive_seed
from ..engine.sharding import shard_bounds
from . import paper_numbers as paper
from .records import PublicCdnRecord
from .workload import (COLUMN_CHUNK_ROWS, ZipfSampler, column_records,
                       poisson_arrivals)


#: Zipf exponent of hostname popularity.
ZIPF_ALPHA = 1.0
#: A resolver's client /24s per unit of relative volume (``qps /
#: mean_qps``), drawn uniformly from this range: busier egress resolvers
#: serve more front-ends, so more client subnets.
SUBNET_MULTIPLIER = (60, 260)


@dataclass
class PublicCdnDataset:
    """The generated trace (ts-ordered) and the egress resolvers behind it."""

    records: List[PublicCdnRecord]
    resolver_ips: List[str]
    duration_s: float
    ttl: int


class PublicCdnBuilder:
    """Builds a :class:`PublicCdnDataset` at a configurable scale."""

    def __init__(self, scale: float = 0.02, seed: int = 0,
                 duration_s: float = 3 * 3600.0,
                 hostname_count: int = 40,
                 ttl: int = 20,
                 mean_qps: float = 4.0,
                 volume_spread_decades: float = 0.9):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.duration_s = duration_s
        self.hostname_count = hostname_count
        self.ttl = ttl
        self.mean_qps = mean_qps
        self.volume_spread_decades = volume_spread_decades

    def resolver_count(self) -> int:
        return max(4, round(paper.PUBLIC_CDN_RESOLVER_IPS * self.scale))

    @staticmethod
    def _resolver_ip(r: int) -> str:
        return f"8.{(r >> 8) & 0xFF}.{r & 0xFF}.53"

    def _column_chunks(self, rng: random.Random, lo: int,
                       hi: int) -> Iterator[List[List[Any]]]:
        """The query streams of egress resolvers ``[lo, hi)``, as columns.

        The builder's one row loop.  Resolver-major: each resolver's
        arrivals are time-ordered, resolvers overlap.  A chunk is one
        list per ``public-cdn`` schema column, in schema order, holding
        1 to :data:`COLUMN_CHUNK_ROWS` rows of one resolver (a resolver
        without arrivals yields nothing); :meth:`build` reads the same
        stream as records.  Per row only the subnet and the hostname are
        drawn — in that order, after the resolver's whole arrival series
        — and every other column is constant.
        """
        hostnames = [f"a{i:04d}.cdn.example."
                     for i in range(self.hostname_count)]
        sample_name = ZipfSampler(len(hostnames), ZIPF_ALPHA).sample
        choice = rng.choice
        spread = self.volume_spread_decades
        low, high = SUBNET_MULTIPLIER
        for r in range(lo, hi):
            ip = self._resolver_ip(r)
            # Log-uniform volume: busy front-line resolvers vs near-idle ones.
            qps = self.mean_qps * (10.0 ** rng.uniform(-spread, spread))
            # Client diversity grows with volume (busier egress = more
            # front-ends routing to it = more client subnets).
            subnet_count = max(1, int(qps / self.mean_qps
                                      * rng.uniform(low, high)))
            subnets = [f"{rng.randrange(90, 120)}.{rng.randrange(256)}"
                       f".{rng.randrange(256)}.0" for _ in range(subnet_count)]
            arrivals = poisson_arrivals(qps, self.duration_s, rng)
            for start in range(0, len(arrivals), COLUMN_CHUNK_ROWS):
                ts = arrivals[start:start + COLUMN_CHUNK_ROWS]
                qnames: List[str] = []
                addresses: List[str] = []
                add_qname, add_address = qnames.append, addresses.append
                for _ in ts:
                    add_address(choice(subnets))
                    add_qname(hostnames[sample_name(rng)])
                rows = len(ts)
                yield [ts, [ip] * rows, qnames, [1] * rows, addresses,
                       [24] * rows, [24] * rows, [self.ttl] * rows]

    def build(self) -> PublicCdnDataset:
        rng = random.Random(self.seed)
        resolver_count = self.resolver_count()
        records = list(column_records(PublicCdnRecord, self._column_chunks(
            rng, 0, resolver_count)))
        records.sort(key=attrgetter("ts"))
        return PublicCdnDataset(
            records, [self._resolver_ip(r) for r in range(resolver_count)],
            self.duration_s, self.ttl)

    # -- sharded generation (repro.engine) ---------------------------------

    _SEED_NS = "public-cdn"

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        """Stream one resolver range's queries as column chunks.

        Resolver-major, *not* globally ts-sorted (each resolver's
        arrivals are time-ordered but resolvers overlap): enough for
        Figure 1, which replays resolver by resolver; the ``.col``
        writer holds the chunks as one store and writes it through its
        stable ts order.
        """
        lo, hi = shard_bounds(self.resolver_count(), shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        return self._column_chunks(rng, lo, hi)
