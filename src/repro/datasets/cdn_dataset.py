"""Generator for the CDN dataset (passive authoritative vantage, section 4).

The real dataset is one day of query logs from a major CDN's authoritative
nameservers, reduced to the 4 147 ECS-enabled non-whitelisted resolvers.
This generator reproduces that population at any scale: each synthetic
resolver gets a probing strategy (with section 6.1's proportions) and a
source-prefix profile (Table 1's CDN column), then emits a query stream
whose timing realizes the strategy — probes inside TTL windows, loopback
probes at 30-minute multiples, on-miss probes spaced past the TTL, etc.

Ground-truth labels ride along, so the classifier analyses can report both
the recovered distribution and their own accuracy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..engine.seeding import derive_seed, world_seed
from ..engine.sharding import shard_bounds
from . import paper_numbers as paper
from .records import CdnQueryRecord
from .workload import (ZipfSampler, column_records, poisson_arrivals,
                       split_columns)

#: (category label, paper count) — the section 6.1 buckets.
PROBING_MIX: Tuple[Tuple[str, int], ...] = (
    ("always_ecs", paper.PROBING_ALWAYS),
    ("hostname_probes", paper.PROBING_HOSTNAME_PROBES),
    ("interval_loopback", paper.PROBING_INTERVAL_LOOPBACK),
    ("hostnames_on_miss", paper.PROBING_ON_MISS),
    ("mixed", paper.PROBING_MIXED),
)

#: Table 1 CDN-column rows restricted to IPv4 resolvers (IPv6 handled apart).
_V4_PROFILES: Tuple[Tuple[str, int], ...] = tuple(
    (label, cdn) for label, (_, cdn) in paper.TABLE1_ROWS.items()
    if "IPv6" not in label and cdn > 0)
_V6_PROFILES: Tuple[Tuple[str, int], ...] = tuple(
    (label, cdn) for label, (_, cdn) in paper.TABLE1_ROWS.items()
    if "IPv6" in label and cdn > 0)


@dataclass
class ResolverSpec:
    """Ground truth for one synthetic resolver."""

    ip: str
    probing: str
    profile: str
    country: str
    dominant_as: bool
    is_v6: bool = False
    probe_names: Tuple[str, ...] = ()


@dataclass
class CdnDataset:
    """The generated log plus its ground truth."""

    records: List[CdnQueryRecord]
    resolvers: List[ResolverSpec]
    hostnames: List[str]
    duration_s: float

    def by_resolver(self) -> Dict[str, List[CdnQueryRecord]]:
        out: Dict[str, List[CdnQueryRecord]] = {}
        for r in self.records:
            out.setdefault(r.resolver_ip, []).append(r)
        return out


def _profile_lengths(label: str) -> List[int]:
    """Parse a Table 1 row label into its source prefix lengths."""
    head = label.replace(" (IPv6)", "").split("/")[0]
    return [int(x) for x in head.split(",")]


def _jammed(label: str) -> bool:
    return "jammed" in label


class CdnDatasetBuilder:
    """Builds a :class:`CdnDataset` scaled against the paper's population."""

    def __init__(self, scale: float = 0.02, seed: int = 0,
                 duration_s: float = 6 * 3600.0,
                 hostname_count: int = 120,
                 record_ttl: int = 20):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.duration_s = duration_s
        self.hostname_count = hostname_count
        self.record_ttl = record_ttl

    # -- population ----------------------------------------------------------

    def _scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))

    def _build_resolvers(self, rng: random.Random) -> List[ResolverSpec]:
        specs: List[ResolverSpec] = []
        profile_pool: List[str] = []
        for label, count in _V4_PROFILES:
            profile_pool.extend([label] * self._scaled(count))
        rng.shuffle(profile_pool)

        idx = 0
        for probing, count in PROBING_MIX:
            for _ in range(self._scaled(count)):
                dominant = False
                if profile_pool:
                    profile = profile_pool[idx % len(profile_pool)]
                    idx += 1
                else:
                    profile = "24"
                # The dominant (Chinese) AS sends 100% ECS with jammed /32s.
                if probing == "always_ecs" and _jammed(profile) \
                        and "25" not in profile and "24," not in profile:
                    dominant = rng.random() < (
                        paper.CDN_DOMINANT_AS_RESOLVERS
                        / paper.TABLE1_ROWS["32/jammed last byte"][1])
                country = "CN" if dominant or (
                    _jammed(profile) and rng.random() < 0.9) else \
                    rng.choice(("US", "DE", "BR", "IN", "JP", "FR", "RU"))
                ip = f"66.{(len(specs) >> 8) & 0xFF}.{len(specs) & 0xFF}.53"
                probe_names = ()
                if probing in ("hostname_probes", "hostnames_on_miss"):
                    probe_names = (f"probe{len(specs) % 7}.cdn.example.",)
                elif probing == "interval_loopback":
                    probe_names = ("beacon.cdn.example.",)
                specs.append(ResolverSpec(ip, probing, profile, country,
                                          dominant, False, probe_names))
        # IPv6 resolvers (always-ECS per the paper's v6 rows).
        for label, count in _V6_PROFILES:
            for _ in range(self._scaled(count)):
                ip = f"2600:66::{len(specs):x}"
                specs.append(ResolverSpec(ip, "always_ecs", label, "US",
                                          False, True))
        return specs

    # -- ECS payloads ----------------------------------------------------------

    def _client_subnets(self, spec: ResolverSpec,
                        rng: random.Random) -> List[str]:
        """A resolver serves clients in a handful of /24s (or /48s)."""
        count = rng.randint(2, 8)
        if spec.is_v6:
            return [f"2610:{rng.randrange(1 << 16):x}:{rng.randrange(1 << 16):x}::"
                    for _ in range(count)]
        return [f"{rng.randrange(90, 110)}.{rng.randrange(256)}.{rng.randrange(256)}.0"
                for _ in range(count)]

    def _ecs_payload(self, spec: ResolverSpec, subnet: str,
                     rng: random.Random) -> Tuple[str, int]:
        """(address, source prefix length) for one ECS query."""
        lengths = _profile_lengths(spec.profile)
        length = rng.choice(lengths)
        if spec.is_v6:
            return subnet, length
        base = subnet.rsplit(".", 1)[0]
        if length == 32:
            last = 1 if _jammed(spec.profile) else rng.randrange(2, 254)
            return f"{base}.{last}", 32
        if length == 25:
            return f"{base}.{rng.choice((0, 128))}", 25
        octets = [int(x) for x in subnet.split(".")]
        kept = length // 8
        addr = octets[:kept] + [0] * (4 - kept)
        return ".".join(str(o) for o in addr), length

    # -- per-strategy streams ----------------------------------------------------

    def _column_chunks(self, specs: Sequence[ResolverSpec],
                       rng: random.Random) -> Iterator[List[List[Any]]]:
        """The query streams of ``specs``, as columns.

        The builder's one row loop.  Resolver-major: each resolver's rows
        are one run, put in stable ts order and cut into chunks of the
        ``cdn`` schema's columns; runs overlap in time.  Per resolver its
        subnets, rate and arrival series are drawn first, then its
        strategy's rows in emission order: a hostname rank, then (mixed
        only) the ECS coin, then an ECS row's subnet and payload.
        ``has_ecs`` is whether a row has an ECS address, and no row
        carries a scope (no resolver here is whitelisted).
        """
        hostnames = self._hostnames()
        sample_name = ZipfSampler(len(hostnames), alpha=1.0).sample
        duration = self.duration_s
        for spec in specs:
            subnets = self._client_subnets(spec, rng)
            rate = 0.02 * rng.uniform(0.5, 3.0)
            arrivals = poisson_arrivals(rate, duration, rng)
            ts: List[float] = []
            qnames: List[str] = []
            addresses: List[Optional[str]] = []
            lengths: List[Optional[int]] = []

            def row(t: float, qname: str, with_ecs: bool) -> None:
                address = length = None
                if with_ecs:
                    address, length = self._ecs_payload(
                        spec, rng.choice(subnets), rng)
                ts.append(t)
                qnames.append(qname)
                addresses.append(address)
                lengths.append(length)

            if spec.probing == "always_ecs":
                if not arrivals:  # every resolver in the dataset sent something
                    arrivals = [rng.uniform(0, duration) for _ in range(3)]
                for t in arrivals:
                    row(t, hostnames[sample_name(rng)], True)
            elif spec.probing == "hostname_probes":
                # Background non-ECS traffic, never touching the probe names.
                for t in arrivals:
                    row(t, hostnames[sample_name(rng)], False)
                # Probe names re-queried well inside the 20 s TTL.
                gap = rng.uniform(5.0, 0.8 * self.record_ttl)
                for name in spec.probe_names:
                    t = rng.uniform(0, gap)
                    while t < duration:
                        row(t, name, True)
                        t += gap
            elif spec.probing == "interval_loopback":
                for t in arrivals:
                    row(t, hostnames[sample_name(rng)], False)
                interval = 1800.0 * rng.choice((1, 1, 2))
                name = spec.probe_names[0]
                t = rng.uniform(0, 60.0)
                while t < duration:
                    ts.append(t)
                    qnames.append(name)
                    addresses.append("127.0.0.1")
                    lengths.append(32)
                    t += interval * rng.choice((1, 1, 1, 2))
            elif spec.probing == "hostnames_on_miss":
                for t in arrivals:
                    row(t, hostnames[sample_name(rng)], False)
                for name in spec.probe_names:
                    t = rng.uniform(0, 120.0)
                    while t < duration:
                        row(t, name, True)
                        # Past the TTL *and* the one-minute window.
                        t += rng.uniform(90.0, 900.0)
            else:  # mixed
                ecs_fraction = rng.uniform(0.2, 0.8)
                for t in arrivals:
                    row(t, hostnames[sample_name(rng)],
                        rng.random() < ecs_fraction)
                # Guarantee the stream is genuinely mixed.
                if ts:
                    row(duration / 2, hostnames[0], True)
                    row(duration / 2 + 1, hostnames[0], False)
            order = sorted(range(len(ts)), key=ts.__getitem__)
            ts, qnames, addresses, lengths = [
                [values[i] for i in order]
                for values in (ts, qnames, addresses, lengths)]
            rows = len(ts)
            yield from split_columns([
                ts, [spec.ip] * rows, qnames, [28 if spec.is_v6 else 1] * rows,
                [address is not None for address in addresses], addresses,
                lengths, [None] * rows, [self.record_ttl] * rows])

    # -- entry point --------------------------------------------------------------

    def build(self) -> CdnDataset:
        """Generate the dataset (deterministic in the builder's seed)."""
        rng = random.Random(self.seed)
        specs = self._build_resolvers(rng)
        records = list(column_records(CdnQueryRecord,
                                      self._column_chunks(specs, rng)))
        records.sort(key=attrgetter("ts"))
        return CdnDataset(records, specs, self._hostnames(), self.duration_s)

    # -- sharded generation (repro.engine) ---------------------------------

    _SEED_NS = "cdn"

    def _hostnames(self) -> List[str]:
        return [f"e{i:04d}.cdn.example." for i in range(self.hostname_count)]

    def _world_specs(self) -> List[ResolverSpec]:
        """The resolver population, identical in every shard.

        Seeded only by the root seed, so shard workers rebuild the exact
        same ground truth without any shared state.
        """
        rng = random.Random(world_seed(self.seed, self._SEED_NS))
        return self._build_resolvers(rng)

    def iter_shard_columns(self, shard_index: int,
                           shard_count: int) -> Iterator[List[List[Any]]]:
        """Stream one resolver slice's queries as column chunks.

        Resolver-major (each resolver's rows are in ts order, resolvers
        overlap in time): the ``.col`` writer holds the chunks as one
        store and writes it through its stable ts order.
        """
        specs = self._world_specs()
        lo, hi = shard_bounds(len(specs), shard_count)[shard_index]
        rng = random.Random(derive_seed(self.seed, shard_index,
                                        self._SEED_NS))
        return self._column_chunks(specs[lo:hi], rng)
