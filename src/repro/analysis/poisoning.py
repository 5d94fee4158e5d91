"""ECS-targeted cache poisoning blast radius (Kintis et al., section 2).

The paper's related work notes that ECS lets an attacker who wins a cache
poisoning race *target* specific subnets: a forged response carrying an ECS
scope poisons only the matching scope-keyed entry, invisible to monitors
outside the victim prefix.  Conversely, the 103 scope-ignoring resolvers
of section 6.3 turn even a targeted forgery into a resolver-wide poisoning.

This analysis quantifies the *blast radius*: after one forged response is
accepted (the race itself is out of scope — we model the post-acceptance
state), what fraction of the client population receives the attacker's
answer, and would an off-prefix monitor notice?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core.cache import EcsCache, ScopeMode
from ..dnslib import A, EcsOption, Message, Name, RecordType, ResourceRecord
from ..net.clock import SimClock
from .report import Comparison, format_comparisons

ATTACKER_ANSWER = "198.18.66.66"
LEGIT_ANSWER = "203.0.113.10"


@dataclass
class PoisoningOutcome:
    """Blast radius of one accepted forgery."""

    cache_mode: str
    scope_used: int
    victim_clients_poisoned: int
    victim_clients_total: int
    other_clients_poisoned: int
    other_clients_total: int

    @property
    def victim_fraction(self) -> float:
        return (self.victim_clients_poisoned
                / max(1, self.victim_clients_total))

    @property
    def collateral_fraction(self) -> float:
        return (self.other_clients_poisoned
                / max(1, self.other_clients_total))

    @property
    def monitor_visible(self) -> bool:
        """Would a monitoring client outside the victim prefix see it?"""
        return self.other_clients_poisoned > 0


def run_poisoning_experiment(scope_mode: ScopeMode,
                             forged_scope: int = 24,
                             victim_subnet: str = "100.64.10.0",
                             other_subnets: Sequence[str] = (
                                 "100.64.11.0", "100.64.200.0",
                                 "100.99.1.0", "203.0.114.0"),
                             ) -> PoisoningOutcome:
    """Insert one forged, ECS-scoped answer and measure who receives it.

    The forged response claims to cover ``victim_subnet`` at
    ``forged_scope`` bits; legitimate traffic from every other subnet then
    resolves the same name, and we count who gets the attacker's address.
    """
    clock = SimClock()
    cache = EcsCache(clock, scope_mode=scope_mode)
    qname = Name.from_text("bank.example.com")

    # The attacker's forged response, accepted into the cache.
    forged_ecs = EcsOption.from_client_address(victim_subnet, forged_scope)
    forged = Message(is_response=True)
    forged.answers.append(ResourceRecord(qname, RecordType.A, 300,
                                         A(ATTACKER_ANSWER)))
    forged.set_ecs(forged_ecs.response_to(forged_scope))
    cache.store(qname, RecordType.A, forged, forged_ecs)

    def resolve_for(client_ip: str) -> str:
        cached = cache.lookup(qname, RecordType.A, client_ip)
        if cached is not None:
            return cached.answers[0].rdata.address  # type: ignore[attr-defined]
        # Cache miss: the resolver fetches the legitimate answer.
        ecs = EcsOption.from_client_address(client_ip, 24)
        legit = Message(is_response=True)
        legit.answers.append(ResourceRecord(qname, RecordType.A, 300,
                                            A(LEGIT_ANSWER)))
        legit.set_ecs(ecs.response_to(forged_scope))
        cache.store(qname, RecordType.A, legit, ecs)
        return LEGIT_ANSWER

    hosts = range(1, 6)  # five clients per /24
    victim_base = victim_subnet.rsplit(".", 1)[0]
    victim_clients = [f"{victim_base}.{h}" for h in hosts]
    other_clients = [f"{net.rsplit('.', 1)[0]}.{h}"
                     for net in other_subnets for h in hosts]

    victim_poisoned = sum(resolve_for(ip) == ATTACKER_ANSWER
                          for ip in victim_clients)
    other_poisoned = sum(resolve_for(ip) == ATTACKER_ANSWER
                         for ip in other_clients)
    return PoisoningOutcome(scope_mode.value, forged_scope,
                            victim_poisoned, len(victim_clients),
                            other_poisoned, len(other_clients))


def compare_blast_radius() -> List[PoisoningOutcome]:
    """The headline comparison: compliant vs scope-ignoring caches."""
    return [run_poisoning_experiment(ScopeMode.HONOR),
            run_poisoning_experiment(ScopeMode.IGNORE)]


def poisoning_report(outcomes: Sequence[PoisoningOutcome]) -> str:
    """Render the blast-radius comparison as a report table."""
    items = []
    for o in outcomes:
        items.append(Comparison(
            f"{o.cache_mode}: victim-prefix clients poisoned",
            "targeted" if o.cache_mode == "honor" else "resolver-wide",
            f"{o.victim_fraction:.0%}"))
        items.append(Comparison(
            f"{o.cache_mode}: off-prefix clients poisoned", None,
            f"{o.collateral_fraction:.0%}",
            note="visible to monitors" if o.monitor_visible
            else "invisible to off-prefix monitors"))
    return format_comparisons(
        items, "ECS-targeted cache poisoning blast radius")
