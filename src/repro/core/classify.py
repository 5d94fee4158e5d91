"""Behavior classification — the analysis side of sections 6.1–6.3.

Two families of classifiers:

* **Log-driven** (:func:`classify_probing`, :func:`prefix_length_profile`):
  take the query log one authoritative server keeps for a single resolver
  and recover the resolver's probing strategy and source-prefix policy, with
  the same heuristics the paper applies to the CDN dataset.

* **Probe-driven** (:func:`classify_caching`): take the outcome of the
  section 6.3 twin-query experiment and bucket the resolver into the
  caching-behavior categories the paper reports.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..addr import address_kind, parse_addr

#: Queries for the same name closer together than this are "within a short
#: time window" for the on-miss heuristic (the paper uses one minute).
ON_MISS_WINDOW_S = 60.0
#: Tolerance when testing whether probe intervals are multiples of the base.
INTERVAL_TOLERANCE_S = 90.0


class ProbingCategory(enum.Enum):
    """Section 6.1's probing behavior patterns."""

    ALWAYS_ECS = "always_ecs"
    HOSTNAME_PROBES = "hostname_probes"
    INTERVAL_LOOPBACK = "interval_loopback"
    HOSTNAMES_ON_MISS = "hostnames_on_miss"
    MIXED = "mixed"
    NO_ECS = "no_ecs"


class CachingCategory(enum.Enum):
    """Section 6.3's caching behavior buckets."""

    CORRECT = "correct"
    IGNORES_SCOPE = "ignores_scope"
    ACCEPTS_OVER_24 = "accepts_over_24"
    CLAMPS_AT_22 = "clamps_at_22"
    PRIVATE_PREFIX = "private_prefix"
    UNCLASSIFIED = "unclassified"


@dataclass
class QueryObservation:
    """One query as seen by an authoritative server's log.

    This is the minimal shape the classifiers need; the dataset generators
    produce richer records that duck-type to it.
    """

    ts: float
    qname: str
    qtype: int
    has_ecs: bool
    ecs_address: Optional[str] = None
    ecs_source_len: Optional[int] = None


@dataclass
class ProbingClassification:
    """Classifier verdict plus the evidence used to reach it."""

    category: ProbingCategory
    ecs_fraction: float
    ecs_hostnames: Set[str] = field(default_factory=set)
    interval_estimate: Optional[float] = None
    uses_loopback: bool = False


def _is_loopback(address: Optional[str]) -> bool:
    if address is None:
        return False
    try:
        return address_kind(address) == "loopback"
    except ValueError:
        return False


def classify_probing(observations: Sequence[QueryObservation],
                     record_ttl: float = 20.0) -> ProbingClassification:
    """Recover a resolver's probing strategy from one authoritative's log.

    Mirrors the paper's heuristics: resolvers sending ECS on 100% of
    A/AAAA queries are ALWAYS_ECS; ECS confined to specific hostnames is
    HOSTNAME_PROBES when re-queried within the TTL (caching disabled) and
    HOSTNAMES_ON_MISS when re-queries never fall inside a short window;
    loopback ECS at multiples of a fixed interval is INTERVAL_LOOPBACK.
    """
    addr_queries = [o for o in observations if o.qtype in (1, 28)]
    if not addr_queries:
        return ProbingClassification(ProbingCategory.NO_ECS, 0.0)
    ecs_queries = [o for o in addr_queries if o.has_ecs]
    fraction = len(ecs_queries) / len(addr_queries)
    if fraction == 0.0:
        return ProbingClassification(ProbingCategory.NO_ECS, 0.0)
    if fraction == 1.0:
        return ProbingClassification(ProbingCategory.ALWAYS_ECS, 1.0)

    ecs_names = {o.qname for o in ecs_queries}
    all_loopback = all(_is_loopback(o.ecs_address) for o in ecs_queries)
    if all_loopback and len(ecs_names) == 1:
        interval = _interval_base([o.ts for o in ecs_queries])
        if interval is not None:
            return ProbingClassification(
                ProbingCategory.INTERVAL_LOOPBACK, fraction,
                ecs_hostnames=ecs_names, interval_estimate=interval,
                uses_loopback=True)

    # ECS confined to designated hostnames?
    per_name: Dict[str, List[QueryObservation]] = defaultdict(list)
    for o in addr_queries:
        per_name[o.qname].append(o)
    confined = all(
        all(x.has_ecs for x in per_name[name] if x.qtype in (1, 28))
        for name in ecs_names)  # repro-lint: disable=RS001 (all() of a pure test: order cannot reach the result)
    if confined:
        repeats_within_ttl = _has_repeat_within(ecs_queries, record_ttl)
        if repeats_within_ttl:
            return ProbingClassification(
                ProbingCategory.HOSTNAME_PROBES, fraction,
                ecs_hostnames=ecs_names)
        if not _has_repeat_within(ecs_queries, ON_MISS_WINDOW_S):
            return ProbingClassification(
                ProbingCategory.HOSTNAMES_ON_MISS, fraction,
                ecs_hostnames=ecs_names)
    return ProbingClassification(ProbingCategory.MIXED, fraction,
                                 ecs_hostnames=ecs_names)


def _has_repeat_within(queries: Sequence[QueryObservation],
                       window: float) -> bool:
    """True if any hostname is queried twice within ``window`` seconds."""
    last_seen: Dict[str, float] = {}
    for o in sorted(queries, key=lambda x: x.ts):
        prev = last_seen.get(o.qname)
        if prev is not None and o.ts - prev <= window:
            return True
        last_seen[o.qname] = o.ts
    return False


def _interval_base(timestamps: Sequence[float],
                   minimum: float = 600.0) -> Optional[float]:
    """If successive gaps are all ≈ multiples of one base interval, return it."""
    ts = sorted(timestamps)
    gaps = [b - a for a, b in zip(ts, ts[1:]) if b - a > 1.0]
    if not gaps:
        return None
    base = min(gaps)
    if base < minimum:
        return None
    for gap in gaps:
        ratio = gap / base
        if abs(ratio - round(ratio)) * base > INTERVAL_TOLERANCE_S:
            return None
    return base


# ---------------------------------------------------------------------------
# source prefix lengths (Table 1)


@dataclass
class PrefixProfile:
    """Source-prefix-length evidence for one resolver (a Table 1 row)."""

    v4_lengths: Set[int] = field(default_factory=set)
    v6_lengths: Set[int] = field(default_factory=set)
    jammed_last_byte: Optional[int] = None

    def table1_label(self) -> str:
        """The label this resolver contributes to in Table 1."""
        parts: List[str] = []
        if self.v4_lengths:
            v4 = ",".join(str(x) for x in sorted(self.v4_lengths))
            if self.jammed_last_byte is not None:
                parts.append(f"{v4}/jammed last byte")
            else:
                parts.append(v4)
        if self.v6_lengths:
            v6 = ",".join(str(x) for x in sorted(self.v6_lengths))
            parts.append(f"{v6} (IPv6)")
        return " + ".join(parts) if parts else "none"


def prefix_length_profile(observations: Sequence[QueryObservation]
                          ) -> PrefixProfile:
    """Collect the source prefix lengths one resolver sends, with jam
    detection: /32 (or /25+) IPv4 prefixes whose final byte is constant
    reveal the "jammed last byte" pseudo-truncation of section 6.2."""
    profile = PrefixProfile()
    full_length_last_bytes: Set[int] = set()
    saw_full_length = False
    for o in observations:
        if not o.has_ecs or o.ecs_source_len is None or o.ecs_address is None:
            continue
        version, value = parse_addr(o.ecs_address)
        if version == 4:
            profile.v4_lengths.add(o.ecs_source_len)
            # The "jammed last byte" pattern applies to full-length /32
            # prefixes only (section 6.2); /25–/31 prefixes are judged on
            # their own.
            if o.ecs_source_len == 32:
                saw_full_length = True
                full_length_last_bytes.add(value & 0xFF)
        else:
            profile.v6_lengths.add(o.ecs_source_len)
    if saw_full_length and len(full_length_last_bytes) == 1:
        byte = next(iter(full_length_last_bytes))
        if byte in (0x00, 0x01):
            profile.jammed_last_byte = byte
    return profile


# ---------------------------------------------------------------------------
# caching behavior (section 6.3)


@dataclass
class CachingProbeOutcome:
    """Results of the twin-query experiment against one resolver.

    Each ``second_query_seen_scope{24,16,0}`` field answers: after priming
    the cache with a query from one /24 and returning the given scope, did
    the *second* query (from a different /24, same /16) reach the
    authoritative server?  ``True`` means the resolver treated it as a miss.
    """

    second_query_seen_scope24: Optional[bool] = None
    second_query_seen_scope16: Optional[bool] = None
    second_query_seen_scope0: Optional[bool] = None
    #: Longest source prefix observed at the authoritative from this
    #: resolver when arbitrary client prefixes were submitted.
    max_prefix_forwarded: Optional[int] = None
    #: The clamp the resolver imposes on forwarded prefixes, if detected.
    forwarding_clamp: Optional[int] = None
    #: Resolver emitted ECS from a private/loopback block.
    sends_private_prefix: bool = False
    #: Resolver failed to reuse zero-scope answers.
    caches_zero_scope: Optional[bool] = None


def classify_caching(outcome: CachingProbeOutcome) -> CachingCategory:
    """Bucket a resolver per section 6.3's categories.

    Precedence follows the paper: the private-prefix misconfiguration and
    the over-/24 and clamp behaviors are called out even though such
    resolvers may handle scope correctly otherwise.
    """
    if outcome.sends_private_prefix:
        return CachingCategory.PRIVATE_PREFIX
    if outcome.forwarding_clamp is not None and outcome.forwarding_clamp <= 22:
        return CachingCategory.CLAMPS_AT_22
    if outcome.max_prefix_forwarded is not None and outcome.max_prefix_forwarded > 24:
        return CachingCategory.ACCEPTS_OVER_24
    if outcome.second_query_seen_scope24 is False:
        return CachingCategory.IGNORES_SCOPE
    if (outcome.second_query_seen_scope24
            and outcome.second_query_seen_scope16 is False
            and outcome.second_query_seen_scope0 is False):
        return CachingCategory.CORRECT
    return CachingCategory.UNCLASSIFIED
