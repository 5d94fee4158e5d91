"""Generator for the All-Names Resolver dataset (section 4).

The real dataset is 24 hours of all ECS-carrying traffic at one busy egress
resolver of an anycast public DNS service: 11.1M A/AAAA queries from 76.2K
clients (12.3K IPv4 /24s + 2.8K IPv6 /48s) for 134,925 hostnames across
19,014 SLDs, each record carrying both the client IP and the authoritative
ECS scope — the combination the section 7 simulations need.

The generator's defaults and constants are *calibrated*: at ``scale=1.0`` the
trace is roughly 1/20th of the paper's volume, and the section 7 replays of
it land on the paper's reported shape — full-population blow-up near 4,
hit rate ≈0.77 without ECS vs ≈0.30 with, and a Fig 2 curve rising from
≈1.9 at 10% of clients without flattening at 100%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, repeat, starmap
from math import log
from operator import getitem
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ..engine.seeding import derive_seed, world_seed
from ..engine.sharding import shard_bounds
from .records import AllNamesRecord
from .workload import (COLUMN_CHUNK_ROWS, SldPolicy, ZipfSampler,
                       column_records)

#: Authoritative scope mixture (scope bits, weight): most ECS adopters
#: tailor at /24, some coarser, a few echo the full source length.
SCOPE_MIX: Tuple[Tuple[int, float], ...] = (
    (24, 0.55), (16, 0.20), (20, 0.10), (22, 0.05), (32, 0.10))
#: Record TTLs an SLD draws from, uniformly.
TTL_CHOICES = (60, 120, 300, 600)
#: Mean IPv4 clients per /24 (each /24 draws an exponential count).
CLIENTS_PER_SUBNET = 3.0
#: Zipf exponents of hostname popularity and of client activity.
ZIPF_ALPHA = 1.08
CLIENT_ALPHA = 0.65


@dataclass
class _Clients:
    """Client population grouped by address family."""

    v4_clients: List[str]
    v6_clients: List[str]

    @property
    def all_clients(self) -> List[str]:
        return self.v4_clients + self.v6_clients


@dataclass
class AllNamesDataset:
    """The generated trace plus the structures behind it."""

    records: List[AllNamesRecord]
    clients: _Clients
    hostnames: List[str]
    sld_policies: Dict[str, SldPolicy]
    duration_s: float

    @property
    def client_ips(self) -> List[str]:
        return self.clients.all_clients

    @property
    def v4_subnet_count(self) -> int:
        return len({c.rsplit(".", 1)[0] for c in self.clients.v4_clients})


#: Hostnames, per-SLD policies and the client population.
_World = Tuple[List[str], Dict[str, SldPolicy], _Clients]


def _sld_of(hostname: str) -> str:
    """The two most senior labels (``h.x.site.com.`` → ``site.com.``)."""
    parts = hostname.rstrip(".").split(".")
    return ".".join(parts[-2:]) + "."


class AllNamesBuilder:
    """Builds an :class:`AllNamesDataset`; defaults are calibrated."""

    def __init__(self, scale: float = 1.0, seed: int = 0,
                 duration_s: float = 24 * 3600.0,
                 hostname_count: int = 700,
                 v4_subnet_count: int = 260,
                 v6_subnet_count: int = 80,
                 total_queries: int = 550_000):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.duration_s = duration_s
        self.hostname_count = max(10, round(hostname_count * scale))
        self.v4_subnet_count = max(4, round(v4_subnet_count * scale))
        self.v6_subnet_count = max(1, round(v6_subnet_count * scale))
        self.total_queries = max(100, round(total_queries * scale))

    def _clients(self, rng: random.Random) -> _Clients:
        v4: List[str] = []
        for i in range(self.v4_subnet_count):
            # Spread /24s across up to 48 /16s so scope-16 responses group
            # a stable number of subnets at any scale.
            prefix = f"100.{64 + (i % 48)}.{i // 48}"
            count = max(1, min(254,
                               int(rng.expovariate(1.0 / CLIENTS_PER_SUBNET)) + 1))
            for host in rng.sample(range(1, 255), count):
                v4.append(f"{prefix}.{host}")
        v6 = [f"2610:{i % 48:x}:{i // 48:x}::{j:x}"
              for i in range(self.v6_subnet_count) for j in range(1, 3)]
        return _Clients(v4, v6)

    def _policies(self, slds: Sequence[str],
                  rng: random.Random) -> Dict[str, SldPolicy]:
        scopes = [s for s, _ in SCOPE_MIX]
        weights = [w for _, w in SCOPE_MIX]
        return {sld: SldPolicy(ttl=rng.choice(TTL_CHOICES),
                               scope=rng.choices(scopes, weights=weights, k=1)[0])
                for sld in slds}

    def _draw_world(self, rng: random.Random) -> _World:
        """Hostnames, SLD policies and clients, drawn from ``rng``."""
        sld_count = max(2, self.hostname_count // 7)
        hostnames = [f"h{i}.s{i % sld_count:05d}.com."
                     for i in range(self.hostname_count)]
        policies = self._policies(sorted({_sld_of(h) for h in hostnames}), rng)
        return hostnames, policies, self._clients(rng)

    def _column_chunks(self, world: _World, rng: random.Random, lo: int,
                       hi: int) -> Iterator[List[List[Any]]]:
        """The query stream for global indices ``[lo, hi)``, as columns.

        Fills the ``allnames`` schema's six columns (plain lists, schema
        order) and yields them every :data:`COLUMN_CHUNK_ROWS` rows, so
        the columnar writers take the rows as they are and nothing is
        built per row; :meth:`build` reads the same stream as records.
        The clock starts at the window boundary ``lo * step``.

        A chunk is drawn at C level, with no Python statement per row:
        one call draws its ``3 x rows`` uniforms, row by row in the
        order every golden depends on (inter-arrival, hostname rank,
        client rank).  The clock advances by ``-log(1.0 - u) * step``,
        which is what ``rng.expovariate(1.0) * step`` computes from its
        one ``random()``; the ranks come from
        :meth:`ZipfSampler.ranks`; and each column is a table read per
        rank, the tables holding whatever depends only on the hostname
        or only on the client.  ``tests/test_datasets.py`` holds the
        per-row loop this replaced, as the oracle of this stream.
        """
        hostnames, policies, clients = world
        ttls: List[int] = []
        scope_pairs: List[Tuple[int, int]] = []
        for hostname in hostnames:
            policy = policies[_sld_of(hostname)]
            ttls.append(policy.ttl)
            scope_pairs.append((policy.scope,
                                0 if policy.scope == 0 else 48))
        all_clients = clients.all_clients
        qtypes = [28 if ":" in client else 1 for client in all_clients]
        families = [1 if ":" in client else 0 for client in all_clients]
        name_ranks = ZipfSampler(len(hostnames), ZIPF_ALPHA).ranks
        client_ranks = ZipfSampler(len(all_clients), CLIENT_ALPHA).ranks
        draw = rng.random
        step = self.duration_s / self.total_queries
        t = lo * step
        for start in range(lo, hi, COLUMN_CHUNK_ROWS):
            rows = min(hi, start + COLUMN_CHUNK_ROWS) - start
            us = list(starmap(draw, repeat((), 3 * rows)))
            ts = list(accumulate(
                map((-step).__mul__, map(log, map((1.0).__sub__, us[::3]))),
                initial=t))
            del ts[0]
            t = ts[-1]
            names = name_ranks(us[1::3])
            who = client_ranks(us[2::3])
            # Not held while the consumer writes the chunk: 3 x rows
            # floats are about a MiB of the process's peak.
            del us
            yield [ts,
                   list(map(all_clients.__getitem__, who)),
                   list(map(hostnames.__getitem__, names)),
                   list(map(qtypes.__getitem__, who)),
                   list(map(getitem, map(scope_pairs.__getitem__, names),
                            map(families.__getitem__, who))),
                   list(map(ttls.__getitem__, names))]

    def build(self) -> AllNamesDataset:
        """Generate the trace (deterministic in the builder's seed)."""
        rng = random.Random(self.seed)
        world = hostnames, policies, clients = self._draw_world(rng)
        records = list(column_records(AllNamesRecord, self._column_chunks(
            world, rng, 0, self.total_queries)))
        return AllNamesDataset(records, clients, hostnames, policies,
                               self.duration_s)

    # -- sharded generation (repro.engine) ---------------------------------

    _SEED_NS = "allnames"

    def _world(self) -> _World:
        """Shard-independent structures, seeded only by the root seed.

        Every shard rebuilds the same world (it is tiny next to the query
        stream), so shard workers need no shared state.
        """
        return self._draw_world(
            random.Random(world_seed(self.seed, self._SEED_NS)))

    def client_ips(self) -> List[str]:
        """The client population, in the order :class:`AllNamesDataset`
        lists it, silent clients included: the same for every shard."""
        return self._world()[2].all_clients

    #: The query clock only moves forward, so :meth:`iter_shard_columns`
    #: emits in global ts order and streaming writers need no sort pass.
    ITER_SHARD_SORTED = True

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        """Generate one shard's queries as column chunks (ts-ascending).

        Each chunk is one list per ``allnames`` schema column, in schema
        order, holding 1 to :data:`COLUMN_CHUNK_ROWS` rows — what
        ``GroupedColumnarWriter.extend_columns`` takes.  Shard ``i`` of
        ``n`` emits the queries with global indices in
        ``shard_bounds(total_queries, n)[i]``, starting its clock at the
        window boundary; its random stream is seeded by
        ``derive_seed(seed, i)`` so output depends only on the shard
        decomposition, never on the worker that ran it.
        """
        lo, hi = shard_bounds(self.total_queries, shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        return self._column_chunks(self._world(), rng, lo, hi)

    # benchmarks/e2e rebinds this (layers.py) and checks rows with it.
    def iter_shard(self, shard_index: int,
                   shard_count: int) -> Iterator[AllNamesRecord]:
        """:meth:`iter_shard_columns` as records, one at a time."""
        yield from column_records(AllNamesRecord, self.iter_shard_columns(
            shard_index, shard_count))
