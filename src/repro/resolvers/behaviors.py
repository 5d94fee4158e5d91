"""Ready-made resolver behavior presets matching the paper's observations.

Each preset is an :class:`~repro.core.policies.EcsPolicy` reproducing one of
the behavior classes catalogued in sections 6.1–6.3 and 8.1.  Dataset
generators draw resolver populations from these presets with the paper's
observed proportions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..core.cache import ScopeMode
from ..core.policies import EcsPolicy, ProbingStrategy
from ..dnslib import Name


def _probe_names(*names: str) -> FrozenSet[Name]:
    return frozenset(Name.from_text(n) for n in names)


#: Fully compliant resolver (the 76 "correct behavior" resolvers): sends
#: /24 v4 and /56 v6 prefixes, honors scope, enforces scope<=source, never
#: forwards more than 24 bits even when clients supply longer prefixes.
COMPLIANT = EcsPolicy()

#: Sends ECS on 100% of A/AAAA queries (3382 of 4147 CDN-dataset resolvers).
ALWAYS_ECS = EcsPolicy(probing=ProbingStrategy.ALWAYS)

#: Sends ECS only for designated probe hostnames, with caching disabled for
#: them, re-querying within even 20-second TTLs (258 resolvers).
HOSTNAME_PROBER = EcsPolicy(
    probing=ProbingStrategy.PROBE_HOSTNAMES,
    probe_hostnames=_probe_names("probe.example.com"),
    bypass_cache_for_probes=True,
)

#: ECS probes at multiples of 30 minutes carrying the loopback address
#: (32 resolvers); a privacy-friendly but mapping-hostile approach.
INTERVAL_LOOPBACK_PROBER = EcsPolicy(
    probing=ProbingStrategy.INTERVAL_LOOPBACK,
    probe_interval=1800.0,
)

#: The paper's recommendation: probe with the resolver's own public address.
RECOMMENDED_PROBER = EcsPolicy(
    probing=ProbingStrategy.INTERVAL_OWN_ADDRESS,
    probe_interval=1800.0,
)

#: ECS for designated hostnames only on cache misses (88 resolvers).
ON_MISS_PROBER = EcsPolicy(
    probing=ProbingStrategy.HOSTNAMES_ON_MISS,
    probe_hostnames=_probe_names("probe.example.com"),
    bypass_cache_for_probes=False,
)

#: OpenDNS-style per-domain whitelist.
DOMAIN_WHITELISTER = EcsPolicy(
    probing=ProbingStrategy.DOMAIN_WHITELIST,
    whitelist_zones=(Name.from_text("cdn.example."),),
)

#: The dominant-AS behavior: /32 source prefixes whose last byte is jammed
#: to 0x01 — effectively /24 information mislabeled as /32 (section 6.2).
JAMMED_LAST_BYTE = EcsPolicy(jam_last_byte=0x01)

#: Variant jamming to 0x00.
JAMMED_LAST_BYTE_ZERO = EcsPolicy(jam_last_byte=0x00)

#: Sends full /32 prefixes with real last bytes: outright privacy violation.
FULL_PREFIX = EcsPolicy(source_prefix_v4=32, source_prefix_v6=128)

#: Sends /25 prefixes, exceeding the RFC's 24-bit recommendation while
#: adding no routing-level information (section 6.2).
PREFIX_25 = EcsPolicy(source_prefix_v4=25)

#: Reuses cached answers for any client, ignoring scope entirely (103 of
#: the 203 studied resolvers — over half).
SCOPE_IGNORER = EcsPolicy(scope_handling=ScopeMode.IGNORE)

#: Accepts client prefixes longer than /24 and caches at those scopes
#: (15 resolvers).
OVER_24_ACCEPTOR = EcsPolicy(
    accept_client_ecs=True,
    source_prefix_v4=32,
    max_accepted_prefix_v4=32,
    enforce_scope_le_source=True,
)

#: Clamps everything at 22 bits: forwarded prefixes and cached scopes
#: (8 resolvers) — can wreck mapping at CDNs requiring /24 (section 8.3).
CLAMP_22 = EcsPolicy(
    accept_client_ecs=True,
    max_accepted_prefix_v4=22,
    source_prefix_v4=22,
    scope_handling=ScopeMode.CLAMP,
    clamp_scope_bits=22,
)

#: Forwards arbitrary client ECS unmodified up to /24 (the open resolvers
#: the caching experiments drive directly).
ACCEPTS_CLIENT_ECS = EcsPolicy(
    accept_client_ecs=True,
    max_accepted_prefix_v4=24,
)

#: The misconfigured PowerDNS-style resolver of section 8.1: emits an ECS
#: prefix from 10.0.0.0/8 regardless of the client and cannot reuse
#: zero-scope answers.
PRIVATE_PREFIX_SENDER = EcsPolicy(
    fixed_prefix="10.0.0.0",
    fixed_prefix_len=8,
    cache_zero_scope=False,
)

#: Loopback-emitting PowerDNS-style configurations (33 resolvers in the
#: Scan dataset sent 127.0.0.1/32, 127.0.0.0/24 or 169.254.252.0/24).
LOOPBACK_32_SENDER = EcsPolicy(fixed_prefix="127.0.0.1", fixed_prefix_len=32)
LOOPBACK_24_SENDER = EcsPolicy(fixed_prefix="127.0.0.0", fixed_prefix_len=24)
LINK_LOCAL_SENDER = EcsPolicy(fixed_prefix="169.254.252.0", fixed_prefix_len=24)

#: RFC-violating resolver that sends ECS even to the root servers (15 seen
#: in the DITL data).
ROOT_ECS_VIOLATOR = EcsPolicy(send_ecs_to_roots=True,
                              send_ecs_for_ns_queries=True)

#: Plain resolver with ECS disabled (the overwhelming majority of the
#: 3.7M resolvers the CDN sees).
NO_ECS = EcsPolicy(probing=ProbingStrategy.NEVER)


#: Name → preset registry, for configuration-driven population building.
PRESETS: Dict[str, EcsPolicy] = {
    "compliant": COMPLIANT,
    "always_ecs": ALWAYS_ECS,
    "hostname_prober": HOSTNAME_PROBER,
    "interval_loopback_prober": INTERVAL_LOOPBACK_PROBER,
    "recommended_prober": RECOMMENDED_PROBER,
    "on_miss_prober": ON_MISS_PROBER,
    "domain_whitelister": DOMAIN_WHITELISTER,
    "jammed_last_byte": JAMMED_LAST_BYTE,
    "jammed_last_byte_zero": JAMMED_LAST_BYTE_ZERO,
    "full_prefix": FULL_PREFIX,
    "prefix_25": PREFIX_25,
    "scope_ignorer": SCOPE_IGNORER,
    "over_24_acceptor": OVER_24_ACCEPTOR,
    "clamp_22": CLAMP_22,
    "accepts_client_ecs": ACCEPTS_CLIENT_ECS,
    "private_prefix_sender": PRIVATE_PREFIX_SENDER,
    "loopback_32_sender": LOOPBACK_32_SENDER,
    "loopback_24_sender": LOOPBACK_24_SENDER,
    "link_local_sender": LINK_LOCAL_SENDER,
    "root_ecs_violator": ROOT_ECS_VIOLATOR,
    "no_ecs": NO_ECS,
}
