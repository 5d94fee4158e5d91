"""CDN authoritative DNS with ECS-driven edge selection.

Implements the server-side behaviors the paper measures against:

* proximity mapping — pick the edge pool nearest the *client hint* (the ECS
  prefix when usable, otherwise the resolver's address);
* ECS **whitelisting** — the major CDN only honors/echoes ECS for
  pre-approved resolvers, appearing ECS-oblivious to everyone else (the CDN
  dataset's defining property);
* **minimum source prefix thresholds** — section 8.3's CDN-1 stops using ECS
  below /24 and CDN-2 below /21, producing the mapping-quality cliffs of
  Figures 6 and 7;
* **unroutable-prefix handling** — either the RFC's SHOULD (fall back to the
  resolver address) or the literal-lookup behavior that produced Table 2's
  across-the-globe mappings.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..dnslib import (A, AAAA, EcsOption, Message, Name, Rcode, RecordType,
                      ResourceRecord)
from ..net.geo import City
from ..net.topology import Topology
from ..net.transport import Network
from .server import DnsServer


@dataclass(frozen=True)
class EdgePool:
    """One CDN deployment location and the edge addresses served from it."""

    city: City
    addresses: Tuple[str, ...]

    def rotation(self, salt: int, count: int) -> List[str]:
        """A deterministic permutation-prefix of the pool's addresses."""
        addresses = self.addresses
        n = len(addresses)
        if n == 0:
            return []
        start = salt % n
        return [addresses[(start + i) % n] for i in range(min(count, n))]


class UnroutablePolicy(enum.Enum):
    """What the mapper does with loopback/private/link-local ECS prefixes."""

    #: RFC 7871's SHOULD: treat the prefix as the resolver's own identity.
    USE_RESOLVER = "use_resolver"
    #: Feed the prefix to the mapper anyway; with no geolocation available
    #: the mapping degenerates to an arbitrary (hashed) edge — reproducing
    #: the Switzerland / South Africa selections in Table 2.
    LITERAL = "literal"


def _hash_index(token: str, modulus: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % modulus


#: Entries in each per-server memo table below; a full table is cleared
#: wholesale, like the codec tables, which only costs recomputing.
_TABLE_MAX = 4096


def _remember(table: dict, key, value):
    """Store ``value`` under ``key`` in a bounded memo table; return it."""
    if len(table) >= _TABLE_MAX:
        table.clear()
    table[key] = value
    return value


@dataclass(slots=True)
class MappingDecision:
    """Diagnostic record of one edge-selection decision."""

    hint: str
    hint_source: str           # "ecs" | "resolver" | "unroutable-literal"
    pool: EdgePool
    scope_returned: Optional[int]


class CdnAuthoritative(DnsServer):
    """Authoritative server of a CDN using ECS for user mapping."""

    span_name = "authoritative"

    def __init__(self, ip: str, domains: Sequence[Name],
                 edges: Sequence[EdgePool], topology: Topology,
                 ttl: int = 20,
                 scope_v4: int = 24,
                 min_source_prefix_v4: int = 1,
                 whitelist: Optional[Iterable[str]] = None,
                 unroutable_policy: UnroutablePolicy = UnroutablePolicy.USE_RESOLVER,
                 answers_per_response: int = 2):
        super().__init__(ip)
        #: A tuple, so the ``serves`` memo below cannot go stale.
        self.domains: Tuple[Name, ...] = tuple(domains)
        #: A tuple, so the per-city table below cannot go stale.
        self.edges: Tuple[EdgePool, ...] = tuple(edges)
        if not self.edges:
            raise ValueError("a CDN needs at least one edge pool")
        #: City -> its nearest pool, filled on first use: at most one
        #: entry per city the topology places hosts in.
        self._pool_of_city: Dict[City, EdgePool] = {}
        self.topology = topology
        self.ttl = ttl
        self.scope_v4 = scope_v4
        self.min_source_prefix_v4 = min_source_prefix_v4
        self.whitelist: Optional[Set[str]] = \
            set(whitelist) if whitelist is not None else None
        self.unroutable_policy = unroutable_policy
        self.answers_per_response = answers_per_response
        #: The most recent edge-selection decision (``None`` before the
        #: first); earlier ones are not kept.
        self.last_decision: Optional[MappingDecision] = None
        # Per-query values that depend only on this server's setup, each
        # keyed by everything it is a function of.
        #: qname -> whether it falls under :attr:`domains`.
        self._served: Dict[Name, bool] = {}
        #: ``hint|qname`` text -> its rotation salt.
        self._salts: Dict[str, int] = {}
        #: (qname text, edge address, TTL) -> the answer record.  The
        #: text keeps the query's spelling, which ``Name`` equality folds.
        self._records: Dict[Tuple[str, str, int], ResourceRecord] = {}

    # -- mapping -------------------------------------------------------------

    def serves(self, qname: Name) -> bool:
        """True if ``qname`` falls under one of this CDN's domains."""
        return any(qname.is_subdomain_of(d) for d in self.domains)

    def nearest_pool(self, hint_ip: str) -> EdgePool:
        """The edge pool geographically closest to ``hint_ip``."""
        location = self.topology.city_of(hint_ip)
        if location is None:
            return self.edges[_hash_index(hint_ip, len(self.edges))]
        pool = self._pool_of_city.get(location)
        if pool is None:
            # ``min`` keeps the first of equally near pools.
            pool = min(self.edges, key=lambda edge:
                       edge.city.point.distance_km(location.point))
            self._pool_of_city[location] = pool
        return pool

    def select_edges(self, hint_ip: str, qname: Name,
                     hint_source: str,
                     scope_returned: Optional[int]) -> List[str]:
        pool = self.nearest_pool(hint_ip)
        self.last_decision = MappingDecision(hint_ip, hint_source, pool,
                                             scope_returned)
        token = f"{hint_ip}|{qname.to_text()}"
        salt = self._salts.get(token)
        if salt is None:
            salt = _remember(self._salts, token, _hash_index(token, 1 << 30))
        return pool.rotation(salt, self.answers_per_response)

    def _answer(self, qname: Name, address: str) -> ResourceRecord:
        """The A or AAAA record naming ``address`` for ``qname``."""
        key = (qname.to_text(), address, self.ttl)
        record = self._records.get(key)
        if record is None:
            rdata = AAAA(address) if ":" in address else A(address)
            record = _remember(self._records, key, ResourceRecord(
                qname, rdata.rdtype, self.ttl, rdata))
        return record

    def _resolve_hint(self, ecs: Optional[EcsOption], src_ip: str
                      ) -> Tuple[str, str, bool]:
        """Pick the mapping hint; returns (hint_ip, source, ecs_was_used)."""
        if ecs is None:
            return src_ip, "resolver", False
        if ecs.family == 1 and ecs.source_prefix_length < self.min_source_prefix_v4:
            # Below the CDN's usefulness threshold: fall back to the resolver.
            return src_ip, "resolver", False
        if not ecs.is_routable():
            if self.unroutable_policy is UnroutablePolicy.USE_RESOLVER:
                return src_ip, "resolver", True
            return ecs.address_text, "unroutable-literal", True
        return ecs.address_text, "ecs", True

    # -- protocol --------------------------------------------------------------

    def handle_query(self, query: Message, src_ip: str,
                     net: Network) -> Optional[Message]:
        response = query.make_response()
        response.authoritative = True
        if query.question is None:
            response.rcode = Rcode.FORMERR
            return response
        qname, qtype = query.question.qname, query.question.qtype
        served = self._served.get(qname)
        if served is None:
            served = _remember(self._served, qname, self.serves(qname))
        if not served:
            response.rcode = Rcode.REFUSED
            return response
        if qtype not in (RecordType.A, RecordType.AAAA):
            return response  # NODATA for non-address types

        ecs = query.ecs()
        ecs_honored = ecs is not None and (
            self.whitelist is None or src_ip in self.whitelist)
        effective_ecs = ecs if ecs_honored else None

        hint_ip, hint_source, ecs_used = self._resolve_hint(effective_ecs, src_ip)

        scope: Optional[int] = None
        if ecs_honored and response.edns is not None:
            assert ecs is not None
            if ecs_used:
                base = self.scope_v4 if ecs.family == 1 else 48
                scope = min(base, ecs.source_prefix_length)
            else:
                # Whitelisted but below threshold: answer is client-agnostic.
                scope = 0
            # ``make_response`` gave the response a fresh EDNS record
            # with no options: echo into it rather than copying it twice.
            response.edns.options.append(ecs.response_to(scope))

        want_v6 = qtype == RecordType.AAAA
        for address in self.select_edges(hint_ip, qname, hint_source, scope):
            # An A query skips v6 edges and an AAAA query v4 ones.
            if (":" in address) is want_v6:
                response.answers.append(self._answer(qname, address))
        return response


def build_edge_pools(topology: Topology, cdn_as, cities: Sequence[City],
                     addresses_per_pool: int = 4) -> List[EdgePool]:
    """Deploy edge pools: ``addresses_per_pool`` hosts in each city."""
    pools = []
    for c in cities:
        addrs = tuple(cdn_as.host_in(c) for _ in range(addresses_per_pool))
        pools.append(EdgePool(c, addrs))
    return pools
