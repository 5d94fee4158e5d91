"""Section 6.3 analysis: aggregate caching-behavior classification.

Drives :class:`~repro.measure.caching_probe.CachingBehaviorProber` over a
scan universe and tabulates the category counts next to the paper's
(76 correct / 103 scope-ignoring / 15 over-/24 / 8 clamp-22 / 1 private).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.classify import CachingCategory
from ..datasets import paper_numbers as paper
from ..datasets.scan_dataset import ScanUniverse
from ..measure.caching_probe import CachingBehaviorProber, ProbeReport
from .report import Comparison, format_comparisons

PAPER_COUNTS = {
    CachingCategory.CORRECT: paper.CACHING_CORRECT,
    CachingCategory.IGNORES_SCOPE: paper.CACHING_IGNORES_SCOPE,
    CachingCategory.ACCEPTS_OVER_24: paper.CACHING_OVER_24,
    CachingCategory.CLAMPS_AT_22: paper.CACHING_CLAMP_22,
    CachingCategory.PRIVATE_PREFIX: paper.CACHING_PRIVATE_PREFIX,
}


@dataclass
class CachingBehaviorAnalysis:
    """Probe reports plus aggregate counts."""

    reports: List[ProbeReport]
    megadns_report: Optional[ProbeReport]

    def counts(self) -> Dict[CachingCategory, int]:
        return dict(Counter(r.category for r in self.reports))

    def report(self) -> str:
        counts = self.counts()
        studied = len(self.reports)
        paper_studied = paper.CACHING_STUDIED
        items = []
        for category, paper_count in PAPER_COUNTS.items():
            measured = counts.get(category, 0)
            items.append(Comparison(
                category.value,
                f"{paper_count} ({paper_count / paper_studied:.0%})",
                f"{measured} ({measured / max(1, studied):.0%})"))
        unclassified = counts.get(CachingCategory.UNCLASSIFIED, 0)
        if unclassified:
            items.append(Comparison("unclassified", None, unclassified))
        if self.megadns_report is not None:
            items.append(Comparison(
                "major public resolver", "correct",
                self.megadns_report.category.value,
                note="paper: the one studiable Google resolver was correct"))
        return format_comparisons(items,
                                  "Section 6.3 — caching behavior classes")

    def scope_ignoring_majority(self) -> bool:  # repro-lint: disable=RS008 (§6.3's headline; the caching bench asserts it)
        """The paper's headline: over half of studied resolvers ignore scope.

        (In the synthetic mix the share is configurable; the default mix
        keeps it the largest class.)
        """
        counts = self.counts()
        ignoring = counts.get(CachingCategory.IGNORES_SCOPE, 0)
        return ignoring >= max(counts.values())


def analyze_caching_behavior(universe: ScanUniverse) -> CachingBehaviorAnalysis:
    """Run the twin-query experiment over every studiable resolver."""
    prober = CachingBehaviorProber(universe)
    reports = prober.probe_all()
    megadns = prober.probe_megadns()
    return CachingBehaviorAnalysis(reports, megadns)
