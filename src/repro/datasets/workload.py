"""Workload models: hostname popularity, arrivals, client populations.

DNS query streams are famously skewed; the generators here provide the
standard building blocks — Zipf-distributed name popularity, Poisson
arrivals, and client subnet populations with configurable diversity — that
the four dataset generators compose.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..net.addr import host_in

R = TypeVar("R")

#: Most rows a builder's column stream (``iter_shard_columns``) puts in
#: one chunk.  Write throughput is flat from 1,024 rows to 16,384
#: (``docs/performance.md`` has the sweep on ``trace_write``); at this
#: size a chunk's value lists stay a few hundred KiB, far under one row
#: group, so a worker's peak RSS does not depend on it.
COLUMN_CHUNK_ROWS = 4096


def merge_sorted_records(shard_lists: Sequence[Sequence[R]],
                         key: Callable[[R], float] = None) -> List[R]:
    """Order-stable k-way merge of per-shard, timestamp-sorted records.

    Equivalent to a stable sort of the concatenation in shard order —
    records with equal timestamps keep the earlier shard's entries first —
    but O(total · log shards).  This is the merge every sharded builder's
    ``assemble`` uses, and its stability is what makes merged output
    independent of how many workers generated the shards.
    """
    if key is None:
        key = lambda r: r.ts
    return list(heapq.merge(*shard_lists, key=key))


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
class HostnameUniverse:
    """A set of hostnames spread across second-level domains.

    The All-Names dataset spans 134,925 hostnames in 19,014 SLDs; this
    builder reproduces that structure at any scale.
    """

    hostnames: List[str]
    slds: List[str]

    @classmethod
    def generate(cls, sld_count: int, hostnames_per_sld: float,
                 rng: random.Random, tld: str = "com") -> "HostnameUniverse":
        """Create ``sld_count`` SLDs with a geometric number of hosts each."""
        hostnames: List[str] = []
        slds: List[str] = []
        labels = ("www", "api", "cdn", "static", "img", "video", "mail",
                  "app", "edge", "assets")
        for i in range(sld_count):
            sld = f"site{i:05d}.{tld}."
            slds.append(sld)
            count = max(1, min(len(labels),
                               int(rng.expovariate(1.0 / hostnames_per_sld)) + 1))
            for label in labels[:count]:
                hostnames.append(f"{label}.{sld}")
        return cls(hostnames, slds)


@dataclass
class ClientPopulation:
    """Clients grouped into /24 (IPv4) and /48 (IPv6) subnets."""

    v4_clients: List[str]
    v6_clients: List[str]

    @classmethod
    def generate(cls, v4_subnet_count: int, v6_subnet_count: int,
                 clients_per_subnet: float, rng: random.Random,
                 v4_base: str = "100.64.0.0/10",
                 v6_base: int = 0x2610) -> "ClientPopulation":
        """Spread clients over subnets (≥1 client per subnet).

        The v4 subnets are consecutive /24s inside ``v4_base``; v6 subnets
        are /48s under ``v6_base``::/16.
        """
        v4: List[str] = []
        for i in range(v4_subnet_count):
            base = f"100.{64 + (i >> 8) % 64}.{i & 0xFF}.0/24"
            count = max(1, int(rng.expovariate(1.0 / clients_per_subnet)))
            chosen = rng.sample(range(1, 255), min(count, 254))
            prefix = base.rsplit(".", 1)[0]
            v4.extend(f"{prefix}.{h}" for h in chosen)
        v6: List[str] = []
        for i in range(v6_subnet_count):
            count = max(1, int(rng.expovariate(1.0 / clients_per_subnet)))
            for _ in range(count):
                host = rng.randrange(1, 1 << 32)
                v6.append(f"{v6_base:x}:{(i >> 16) & 0xFFFF:x}:{i & 0xFFFF:x}::{host & 0xFFFF:x}:{(host >> 16) & 0xFFFF:x}")
        return cls(v4, v6)

    @property
    def all_clients(self) -> List[str]:
        return self.v4_clients + self.v6_clients

    def sample(self, rng: random.Random, skew: float = 1.0) -> str:
        """Draw a client; ``skew`` > 0 Zipf-weights toward early clients."""
        clients = self.all_clients
        if skew <= 0:
            return rng.choice(clients)
        # Rank-weighted choice without building a sampler per call.
        u = rng.random() ** (1.0 / skew) if skew != 1.0 else rng.random()
        idx = int(u * u * len(clients))  # quadratic skew toward low ranks
        return clients[min(idx, len(clients) - 1)]


@dataclass
class SldPolicy:
    """Per-SLD authoritative behavior: TTL and the ECS scope it returns."""

    ttl: int
    scope: int


def assign_sld_policies(slds: Sequence[str], rng: random.Random,
                        ttl_choices: Sequence[int] = (20, 30, 60, 300),
                        scope_choices: Sequence[Tuple[int, float]] = (
                            (24, 0.55), (16, 0.15), (20, 0.10),
                            (22, 0.10), (32, 0.10)),
                        ) -> dict:
    """Give each SLD a stable (TTL, scope) policy.

    The mixture defaults approximate the diversity of authoritative ECS
    deployments: most tailor at /24, some coarser, a few echo full length.
    """
    scopes = [s for s, _ in scope_choices]
    weights = [w for _, w in scope_choices]
    policies = {}
    for sld in slds:
        policies[sld] = SldPolicy(
            ttl=rng.choice(list(ttl_choices)),
            scope=rng.choices(scopes, weights=weights, k=1)[0],
        )
    return policies
