"""Resolver-side ECS policy: probing strategies and source prefix selection.

Section 6.1 of the paper identifies four probing patterns among ECS-enabled
resolvers (plus a residue with no discernible pattern), and section 6.2
catalogs the source-prefix-length policies, including the "jammed last byte"
/32s common among Chinese ISPs.  :class:`EcsPolicy` captures every knob as
data so resolver populations with the paper's behavior mix can be
instantiated from configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple, Union

from ..addr import MASKS4, IPAddress, parse_addr
from ..dnslib import EcsOption, Name, RecordType
from .cache import ScopeMode

IPAddressLike = Union[str, IPAddress]


class ProbingStrategy(enum.Enum):
    """When a resolver attaches ECS to queries toward an authoritative."""

    #: Send ECS on every A/AAAA query (3382 of 4147 resolvers in the CDN
    #: dataset; indistinguishable from a whitelist that includes the CDN).
    ALWAYS = "always"
    #: Send ECS consistently but only for designated probe hostnames, with
    #: caching disabled for those names (258 resolvers).
    PROBE_HOSTNAMES = "probe_hostnames"
    #: Send an ECS probe carrying the loopback address every multiple of a
    #: fixed interval, non-ECS queries otherwise (32 resolvers).
    INTERVAL_LOOPBACK = "interval_loopback"
    #: Send ECS for designated hostnames only on a cache miss (88 resolvers).
    HOSTNAMES_ON_MISS = "hostnames_on_miss"
    #: Only send ECS to whitelisted zones (OpenDNS-style).
    DOMAIN_WHITELIST = "domain_whitelist"
    #: The paper's recommendation: probe with the resolver's *own public
    #: address* instead of loopback, preserving privacy without confusing
    #: the authoritative mapping.
    INTERVAL_OWN_ADDRESS = "interval_own_address"
    #: Never send ECS (the vast majority of all resolvers).
    NEVER = "never"


@dataclass(frozen=True)
class EcsPolicy:
    """Complete ECS behavior configuration for one recursive resolver."""

    probing: ProbingStrategy = ProbingStrategy.ALWAYS
    #: Hostnames used for PROBE_HOSTNAMES / HOSTNAMES_ON_MISS strategies.
    probe_hostnames: FrozenSet[Name] = frozenset()
    #: Interval for INTERVAL_* strategies, seconds (paper observes 30 min).
    probe_interval: float = 1800.0
    #: Zones receiving ECS under DOMAIN_WHITELIST.
    whitelist_zones: Tuple[Name, ...] = ()

    #: Source prefix lengths (RFC recommends at most 24 / 56).
    source_prefix_v4: int = 24
    source_prefix_v6: int = 56
    #: When set, send full-length prefixes with the last byte forced to this
    #: value (the /32 "jammed last byte" behavior, usually 0x01 or 0x00).
    jam_last_byte: Optional[int] = None
    #: Forward arbitrary client-supplied ECS instead of deriving from the
    #: query's source address.
    accept_client_ecs: bool = False
    #: Clamp accepted/forwarded client prefixes to this many bits
    #: (the 8 resolvers clamping at 22; None = no clamp beyond family max).
    max_accepted_prefix_v4: Optional[int] = None
    #: Always send this fixed prefix instead of real client data (the
    #: misconfigured resolver emitting 10.0.0.0/8).
    fixed_prefix: Optional[str] = None
    fixed_prefix_len: int = 8

    #: Cache behavior.
    scope_handling: ScopeMode = ScopeMode.HONOR
    clamp_scope_bits: int = 22
    enforce_scope_le_source: bool = True
    cache_zero_scope: bool = True
    #: PROBE_HOSTNAMES resolvers answer probe names upstream even on a hit.
    bypass_cache_for_probes: bool = True

    #: RFC violations the paper checks for explicitly.
    send_ecs_for_ns_queries: bool = False
    send_ecs_to_roots: bool = False

    #: Section 9 extension: adapt the source prefix length per
    #: authoritative server to the scopes it returns (never send more bits
    #: than the server has ever used).  Saves privacy at CDNs with coarse
    #: mapping — at the risk section 8.3 documents, since CDNs ignore ECS
    #: below their thresholds without warning.
    adapt_source_to_scope: bool = False

    def with_(self, **changes) -> "EcsPolicy":
        """A modified copy (dataclass ``replace`` convenience)."""
        return replace(self, **changes)


#: The RFC-recommended configuration (and the paper's recommendation of
#: probing with the resolver's own address).
COMPLIANT_POLICY = EcsPolicy()


@dataclass
class AuthoritativeEcsState:
    """What a resolver knows about one authoritative server's ECS support."""

    supports_ecs: Optional[bool] = None
    last_probe: Optional[float] = None
    #: Most recent scope prefix length returned (for adaptive sourcing).
    #: Latest-wins keeps the resolver responsive to authoritative policy
    #: changes in either direction; a server that stops using fine scopes
    #: immediately stops receiving fine prefixes.
    last_scope_seen: Optional[int] = None


@dataclass(slots=True)
class EcsDecision:
    """The outcome of the per-query policy evaluation."""

    send_ecs: bool
    #: Send the loopback address instead of client data (probing quirk).
    use_loopback: bool = False
    #: Send the resolver's own public address (paper's recommendation).
    use_own_address: bool = False


class ProbingEngine:
    """Evaluates an :class:`EcsPolicy` per query.

    Tracks per-authoritative probe timing so INTERVAL_* strategies fire at
    multiples of the configured interval, as observed in the paper.
    """

    def __init__(self, policy: EcsPolicy):
        self.policy = policy
        self._auth_state: Dict[str, AuthoritativeEcsState] = {}

    def state_for(self, auth_ip: str) -> AuthoritativeEcsState:
        return self._auth_state.setdefault(auth_ip, AuthoritativeEcsState())

    def note_response(self, auth_ip: str, had_valid_ecs: bool,
                      scope: Optional[int] = None) -> None:
        """Record whether the authoritative echoed a valid ECS option
        (and, for adaptive sourcing, the scope it used)."""
        state = self.state_for(auth_ip)
        state.supports_ecs = had_valid_ecs
        if had_valid_ecs and scope is not None and scope > 0:
            state.last_scope_seen = scope

    def adapted_source_limit(self, auth_ip: str) -> Optional[int]:
        """For adaptive policies: the prefix-length cap learned for
        ``auth_ip`` (None until a scoped response has been seen)."""
        if not self.policy.adapt_source_to_scope:
            return None
        return self.state_for(auth_ip).last_scope_seen

    def decide(self, qname: Name, qtype: RecordType, auth_ip: str,
               now: float, cache_hit: bool = False) -> EcsDecision:
        """Should this query to ``auth_ip`` carry ECS, and of what kind?"""
        policy = self.policy
        if qtype not in (RecordType.A, RecordType.AAAA):
            if not policy.send_ecs_for_ns_queries:
                return EcsDecision(False)
        strategy = policy.probing
        if strategy is ProbingStrategy.NEVER:
            return EcsDecision(False)
        if strategy is ProbingStrategy.ALWAYS:
            return EcsDecision(True)
        if strategy is ProbingStrategy.DOMAIN_WHITELIST:
            in_zone = any(qname.is_subdomain_of(z) for z in policy.whitelist_zones)
            return EcsDecision(in_zone)
        if strategy is ProbingStrategy.PROBE_HOSTNAMES:
            return EcsDecision(qname in policy.probe_hostnames)
        if strategy is ProbingStrategy.HOSTNAMES_ON_MISS:
            return EcsDecision(qname in policy.probe_hostnames and not cache_hit)
        if strategy in (ProbingStrategy.INTERVAL_LOOPBACK,
                        ProbingStrategy.INTERVAL_OWN_ADDRESS):
            state = self.state_for(auth_ip)
            due = (state.last_probe is None
                   or now - state.last_probe >= policy.probe_interval)
            if not due:
                return EcsDecision(False)
            state.last_probe = now
            if strategy is ProbingStrategy.INTERVAL_LOOPBACK:
                return EcsDecision(True, use_loopback=True)
            return EcsDecision(True, use_own_address=True)
        raise AssertionError(f"unhandled strategy {strategy}")


def build_query_ecs(policy: EcsPolicy, decision: EcsDecision,
                    client_ip: IPAddressLike,
                    resolver_ip: str,
                    incoming_ecs: Optional[EcsOption] = None,
                    source_limit: Optional[int] = None) -> Optional[EcsOption]:
    """Construct the ECS option a resolver sends upstream, per its policy.

    ``incoming_ecs`` is an option the client/forwarder supplied; it is only
    used when the policy accepts client ECS (many resolvers, including the
    major public service in the paper, override it with the sender address).
    ``source_limit`` caps the IPv4 prefix length (adaptive sourcing).
    """
    if not decision.send_ecs:
        return None
    if decision.use_loopback:
        return EcsOption.from_client_address("127.0.0.1", 32)
    if decision.use_own_address:
        return EcsOption.from_client_address(resolver_ip, None)
    if policy.fixed_prefix is not None:
        return EcsOption.from_client_address(policy.fixed_prefix,
                                             policy.fixed_prefix_len)

    if policy.accept_client_ecs and incoming_ecs is not None:
        source = incoming_ecs.source_prefix_length
        limit = (policy.max_accepted_prefix_v4
                 if incoming_ecs.family == 1 else None)
        if limit is None and incoming_ecs.family == 1:
            limit = policy.source_prefix_v4
        if limit is not None:
            source = min(source, limit)
        # RFC 7871 section 7.1.2: a forwarding resolver may shorten, never
        # lengthen, the client-supplied prefix.
        return EcsOption.from_int(4 if incoming_ecs.family == 1 else 6,
                                  incoming_ecs.address, source)

    # The one parse of the client's text; the option is built from the
    # integer.
    version, value = parse_addr(client_ip)
    if version == 4:
        if policy.jam_last_byte is not None:
            jammed = (value & MASKS4[24]) | (policy.jam_last_byte & 0xFF)
            return EcsOption(1, 32, 0, jammed)
        source = policy.source_prefix_v4
        if source_limit is not None:
            source = min(source, source_limit)
        return EcsOption.from_int(4, value, source)
    return EcsOption.from_int(6, value, policy.source_prefix_v6)
