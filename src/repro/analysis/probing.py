"""Section 6.1 analysis: probing-strategy classification.

Runs the log-driven classifier over every resolver in a (generated or
real-schema) CDN dataset, tabulates the category counts next to the paper's,
and — because the synthetic dataset carries ground truth — also reports
classifier accuracy.  The root-server check (ECS sent to roots) runs over a
DITL-like trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.classify import (ProbingCategory, ProbingClassification,
                             classify_probing)
from ..datasets import paper_numbers as paper
from ..datasets.cdn_dataset import CdnDataset
from ..datasets.ditl import RootTrace, count_root_ecs_violators
from .report import Comparison, format_comparisons

#: Dataset ground-truth label → classifier category value.
_TRUTH_TO_CATEGORY = {
    "always_ecs": ProbingCategory.ALWAYS_ECS,
    "hostname_probes": ProbingCategory.HOSTNAME_PROBES,
    "interval_loopback": ProbingCategory.INTERVAL_LOOPBACK,
    "hostnames_on_miss": ProbingCategory.HOSTNAMES_ON_MISS,
    "mixed": ProbingCategory.MIXED,
}

#: Category → the count the paper reports (section 6.1).
PAPER_COUNTS = {
    ProbingCategory.ALWAYS_ECS: paper.PROBING_ALWAYS,
    ProbingCategory.HOSTNAME_PROBES: paper.PROBING_HOSTNAME_PROBES,
    ProbingCategory.INTERVAL_LOOPBACK: paper.PROBING_INTERVAL_LOOPBACK,
    ProbingCategory.HOSTNAMES_ON_MISS: paper.PROBING_ON_MISS,
    ProbingCategory.MIXED: paper.PROBING_MIXED,
}


@dataclass
class ProbingAnalysis:
    """Classification counts, per-resolver verdicts, and accuracy."""

    counts: Dict[ProbingCategory, int]
    per_resolver: Dict[str, ProbingClassification]
    accuracy: Optional[float]
    total_resolvers: int

    def fractions(self) -> Dict[ProbingCategory, float]:
        total = sum(self.counts.values()) or 1
        return {cat: n / total for cat, n in self.counts.items()}

    def report(self) -> str:
        items = []
        paper_total = sum(PAPER_COUNTS.values())
        for cat, paper_count in PAPER_COUNTS.items():
            measured = self.counts.get(cat, 0)
            items.append(Comparison(
                cat.value,
                f"{paper_count} ({paper_count / paper_total:.1%})",
                f"{measured} ({measured / max(1, self.total_resolvers):.1%})"))
        if self.accuracy is not None:
            items.append(Comparison("classifier accuracy", None,
                                    f"{self.accuracy:.1%}"))
        return format_comparisons(items, "Section 6.1 — probing strategies")


def analyze_probing(dataset: CdnDataset, record_ttl: float = 20.0
                    ) -> ProbingAnalysis:
    """Classify every resolver in the CDN dataset."""
    by_resolver = dataset.by_resolver()
    truth = {spec.ip: spec.probing for spec in dataset.resolvers}
    counts: Counter = Counter()
    per_resolver: Dict[str, ProbingClassification] = {}
    correct = 0
    judged = 0
    for ip, records in by_resolver.items():
        verdict = classify_probing(records, record_ttl=record_ttl)
        per_resolver[ip] = verdict
        counts[verdict.category] += 1
        expected = _TRUTH_TO_CATEGORY.get(truth.get(ip, ""))
        if expected is not None:
            judged += 1
            if verdict.category is expected:
                correct += 1
    accuracy = correct / judged if judged else None
    return ProbingAnalysis(dict(counts), per_resolver, accuracy,
                           len(by_resolver))


@dataclass
class RootViolationAnalysis:
    """The section 6.1 DITL check."""

    violators_found: int
    violators_truth: int

    def report(self) -> str:
        return format_comparisons(
            [Comparison("resolvers sending ECS to roots",
                        paper.PROBING_ROOT_VIOLATORS, self.violators_found,
                        note=f"ground truth: {self.violators_truth}")],
            "Section 6.1 — root-server ECS violations")


def analyze_root_violations(trace: RootTrace) -> RootViolationAnalysis:
    """Count resolvers that sent ECS queries to the root."""
    return RootViolationAnalysis(count_root_ecs_violators(trace.records),
                                 len(trace.violator_ips))
