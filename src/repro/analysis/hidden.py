"""Section 8.2 analysis: hidden resolvers (Figures 4 and 5).

Discovery works exactly as in the paper: an ECS prefix arriving at the
experimental nameserver that covers *neither* the probed ingress forwarder
*nor* the egress resolver that sent the query must belong to an intermediary
— a hidden resolver.  Validation cross-references the discovered prefixes
against the ground-truth chains (standing in for the Public Resolver/CDN
log check, where the public service's sender-derived ECS revealed the true
query senders).

The distance analysis then builds (forwarder, hidden, egress) combinations
and compares the forwarder→hidden distance (what ECS tells the CDN) with
the forwarder→egress distance (what the CDN would use without ECS): points
below the diagonal are cases where ECS actively *worsens* mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from ..addr import same_prefix
from ..datasets import paper_numbers as paper
from ..datasets.scan_dataset import ScanUniverse
from ..measure.scanner import ScanResult
from .report import Comparison, format_comparisons

#: Distances closer than this count as "equidistant" (geolocation noise).
EQUIDISTANT_TOLERANCE_KM = 50.0


@dataclass
class HiddenCombination:
    """One (forwarder, hidden prefix, egress) combination with distances."""

    forwarder_ip: str
    hidden_prefix: str
    egress_ip: str
    f_h_km: float
    f_r_km: float
    via_megadns: bool

    @property
    def hidden_farther(self) -> bool:
        return self.f_h_km > self.f_r_km + EQUIDISTANT_TOLERANCE_KM

    @property
    def equidistant(self) -> bool:
        return abs(self.f_h_km - self.f_r_km) <= EQUIDISTANT_TOLERANCE_KM


@dataclass
class HiddenResolverAnalysis:
    """Discovered prefixes, validation, and the Fig 4/5 distance split."""

    discovered_prefixes: Set[str]
    validated_prefixes: Set[str]
    combinations: List[HiddenCombination]

    def split(self, via_megadns: bool) -> List[HiddenCombination]:
        return [c for c in self.combinations if c.via_megadns == via_megadns]

    def fractions(self, via_megadns: bool) -> Tuple[float, float, float]:
        """(below diagonal, on diagonal, above diagonal) fractions."""
        combos = self.split(via_megadns)
        if not combos:
            return (0.0, 0.0, 0.0)
        below = sum(1 for c in combos if c.hidden_farther)
        on = sum(1 for c in combos if c.equidistant)
        above = len(combos) - below - on
        n = len(combos)
        return (below / n, on / n, above / n)

    def report(self) -> str:
        mp_below, mp_on, mp_above = self.fractions(True)
        other_below, other_on, other_above = self.fractions(False)
        items = [
            Comparison("hidden prefixes discovered", paper.HIDDEN_PREFIXES,
                       len(self.discovered_prefixes), note="paper scale"),
            Comparison("validated fraction",
                       round(paper.HIDDEN_VALIDATED_TOTAL
                             / paper.HIDDEN_PREFIXES, 2),
                       round(len(self.validated_prefixes)
                             / max(1, len(self.discovered_prefixes)), 2)),
            Comparison("MP: hidden farther (below diagonal)",
                       paper.MP_HIDDEN_FARTHER_FRAC, round(mp_below, 3)),
            Comparison("MP: equidistant", paper.MP_EQUIDISTANT_FRAC,
                       round(mp_on, 3)),
            Comparison("non-MP: hidden farther",
                       paper.NONMP_HIDDEN_FARTHER_FRAC, round(other_below, 3)),
            Comparison("non-MP: equidistant", paper.NONMP_EQUIDISTANT_FRAC,
                       round(other_on, 3)),
            Comparison("non-MP: hidden closer (ECS helps)",
                       paper.NONMP_HIDDEN_CLOSER_FRAC, round(other_above, 3)),
        ]
        return format_comparisons(items,
                                  "Section 8.2 — hidden resolvers (Figs 4/5)")


def analyze_hidden_resolvers(universe: ScanUniverse,
                             scan_result: ScanResult
                             ) -> HiddenResolverAnalysis:
    """Discover, validate, and measure hidden resolvers from the scan."""
    topology = universe.topology
    megadns_ips = set(universe.megadns.egress_ips)
    truth_hidden_24: Set[str] = set()
    for chain in universe.chains:
        for hid in chain.hidden_ips:
            truth_hidden_24.add(_prefix24(hid))

    discovered: Set[str] = set()
    validated: Set[str] = set()
    combinations: List[HiddenCombination] = []
    seen_combos: Set[Tuple[str, str, str]] = set()
    for record in scan_result.records:
        if not record.has_ecs or record.ingress_ip is None \
                or record.ecs_address is None:
            continue
        ecs_bits = min(record.ecs_source_len or 24, 24)
        covers_ingress = same_prefix(record.ecs_address, record.ingress_ip,
                                     ecs_bits)
        covers_egress = same_prefix(record.ecs_address, record.egress_ip,
                                    ecs_bits)
        # The scanner recognizes its own prefix (it *is* the client when an
        # ingress is itself a recursive resolver).
        covers_scanner = same_prefix(record.ecs_address,
                                     universe.scanner_ip, ecs_bits)
        if covers_ingress or covers_egress or covers_scanner:
            continue
        hidden_prefix = _prefix24(record.ecs_address)
        discovered.add(hidden_prefix)
        if hidden_prefix in truth_hidden_24:
            validated.add(hidden_prefix)

        combo_key = (record.ingress_ip, hidden_prefix, record.egress_ip)
        if combo_key in seen_combos:
            continue
        seen_combos.add(combo_key)
        f_h = topology.distance_km(record.ingress_ip, record.ecs_address)
        f_r = topology.distance_km(record.ingress_ip, record.egress_ip)
        if f_h is None or f_r is None:
            continue
        combinations.append(HiddenCombination(
            record.ingress_ip, hidden_prefix, record.egress_ip,
            f_h, f_r, record.egress_ip in megadns_ips))
    return HiddenResolverAnalysis(discovered, validated, combinations)


def _prefix24(address: str) -> str:
    parts = address.split(".")
    if len(parts) == 4:
        return ".".join(parts[:3]) + ".0/24"
    return address + "/48"
