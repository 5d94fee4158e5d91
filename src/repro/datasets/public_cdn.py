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
from typing import Iterator, List, Sequence

from ..engine.seeding import derive_seed
from ..engine.sharding import shard_bounds
from . import paper_numbers as paper
from .records import PublicCdnRecord
from .workload import ZipfSampler, merge_sorted_records, poisson_arrivals


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
                 zipf_alpha: float = 1.0,
                 mean_qps: float = 4.0,
                 volume_spread_decades: float = 0.9,
                 subnet_multiplier: tuple = (60, 260)):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.duration_s = duration_s
        self.hostname_count = hostname_count
        self.ttl = ttl
        self.zipf_alpha = zipf_alpha
        self.mean_qps = mean_qps
        self.volume_spread_decades = volume_spread_decades
        self.subnet_multiplier = subnet_multiplier

    def resolver_count(self) -> int:
        return max(4, round(paper.PUBLIC_CDN_RESOLVER_IPS * self.scale))

    @staticmethod
    def _resolver_ip(r: int) -> str:
        return f"8.{(r >> 8) & 0xFF}.{r & 0xFF}.53"

    def _iter_resolver(self, r: int, hostnames: Sequence[str],
                       zipf: ZipfSampler, rng: random.Random
                       ) -> Iterator[PublicCdnRecord]:
        """One egress resolver's query stream, in its own arrival order."""
        ip = self._resolver_ip(r)
        # Log-uniform volume: busy front-line resolvers vs near-idle ones.
        spread = self.volume_spread_decades
        qps = self.mean_qps * (10.0 ** rng.uniform(-spread, spread))
        # Client diversity grows with volume (busier egress = more
        # front-ends routing to it = more client subnets).
        lo, hi = self.subnet_multiplier
        subnet_count = max(1, int(qps / self.mean_qps * rng.uniform(lo, hi)))
        subnets = [f"{rng.randrange(90, 120)}.{rng.randrange(256)}"
                   f".{rng.randrange(256)}.0" for _ in range(subnet_count)]
        for ts in poisson_arrivals(qps, self.duration_s, rng):
            subnet = rng.choice(subnets)
            hostname = hostnames[zipf.sample(rng)]
            yield PublicCdnRecord(ts, ip, hostname, 1, subnet, 24, 24,
                                  self.ttl)

    def _emit_resolver(self, r: int, hostnames: Sequence[str],
                       zipf: ZipfSampler, rng: random.Random,
                       records: List[PublicCdnRecord]) -> None:
        """Append one egress resolver's query stream to ``records``."""
        records.extend(self._iter_resolver(r, hostnames, zipf, rng))

    def build(self) -> PublicCdnDataset:
        rng = random.Random(self.seed)
        resolver_count = self.resolver_count()
        hostnames = [f"a{i:04d}.cdn.example." for i in range(self.hostname_count)]
        zipf = ZipfSampler(len(hostnames), self.zipf_alpha)

        records: List[PublicCdnRecord] = []
        resolver_ips: List[str] = []
        for r in range(resolver_count):
            resolver_ips.append(self._resolver_ip(r))
            self._emit_resolver(r, hostnames, zipf, rng, records)
        records.sort(key=lambda rec: rec.ts)
        return PublicCdnDataset(records, resolver_ips, self.duration_s, self.ttl)

    # -- sharded generation (repro.engine) ---------------------------------

    _SEED_NS = "public-cdn"

    def shard_units(self) -> int:
        """The unit universe sharded over: egress resolvers."""
        return self.resolver_count()

    def iter_shard(self, shard_index: int,
                   shard_count: int) -> Iterator[PublicCdnRecord]:
        """Stream one resolver range's queries, in emission order.

        Resolver-major, *not* globally ts-sorted (each resolver's
        arrivals are time-ordered but resolvers overlap): out-of-core
        writers pair this with an external sort.  The random stream is
        consumed in exactly the :meth:`build_shard` order, so both paths
        generate identical records.
        """
        hostnames = [f"a{i:04d}.cdn.example."
                     for i in range(self.hostname_count)]
        zipf = ZipfSampler(len(hostnames), self.zipf_alpha)
        lo, hi = shard_bounds(self.resolver_count(), shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        for r in range(lo, hi):
            yield from self._iter_resolver(r, hostnames, zipf, rng)

    def build_shard(self, shard_index: int,
                    shard_count: int) -> List[PublicCdnRecord]:
        """Emit the query streams of one contiguous resolver range."""
        records = list(self.iter_shard(shard_index, shard_count))
        records.sort(key=lambda rec: rec.ts)
        return records

    def assemble(self,
                 shard_records: Sequence[List[PublicCdnRecord]]
                 ) -> PublicCdnDataset:
        """Order-stable merge of shard outputs into a full dataset."""
        records = merge_sorted_records(shard_records)
        resolver_ips = [self._resolver_ip(r)
                        for r in range(self.resolver_count())]
        return PublicCdnDataset(records, resolver_ips, self.duration_s,
                                self.ttl)
