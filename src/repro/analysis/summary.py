"""Section 4 analysis: dataset summary statistics.

Each generated dataset reports the same headline numbers the paper's
section 4 gives for the real ones, scaled by the generator's scale factor.
"""

from __future__ import annotations

from ..datasets import paper_numbers as paper
from ..datasets.allnames import AllNamesDataset, _sld_of
from ..datasets.cdn_dataset import CdnDataset
from ..datasets.public_cdn import PublicCdnDataset
from ..measure.scanner import ScanResult
from .report import Comparison, format_comparisons


def summarize_cdn(dataset: CdnDataset) -> str:  # repro-lint: disable=RS008 (§4's summary; the datasets bench reports it)
    """Section 4 headline numbers for a generated CDN dataset."""
    records = dataset.records
    ecs = sum(1 for r in records if r.has_ecs)
    items = [
        Comparison("ECS-enabled non-whitelisted resolvers",
                   paper.CDN_NON_WHITELISTED, len(dataset.resolvers)),
        Comparison("queries", paper.CDN_QUERIES, len(records),
                   note="generator scale applies"),
        Comparison("ECS query fraction",
                   round(paper.CDN_ECS_QUERIES / paper.CDN_QUERIES, 2),
                   round(ecs / max(1, len(records)), 2)),
        Comparison("IPv6 resolvers", paper.CDN_NON_WHITELISTED_V6,
                   sum(1 for s in dataset.resolvers if s.is_v6)),
    ]
    return format_comparisons(items, "Section 4 — CDN dataset")


def summarize_scan(result: ScanResult) -> str:
    """Section 4 headline numbers for a completed scan."""
    total_ingress = len(result.responding_ingress)
    items = [
        Comparison("open ingress resolvers", paper.SCAN_OPEN_INGRESS,
                   total_ingress, note="generator scale applies"),
        Comparison("ECS ingress fraction",
                   round(paper.SCAN_ECS_INGRESS / paper.SCAN_OPEN_INGRESS, 2),
                   round(len(result.ecs_ingress) / max(1, total_ingress), 2)),
        Comparison("ECS egress resolver IPs", paper.SCAN_EGRESS_IPS,
                   len(result.ecs_egress)),
    ]
    return format_comparisons(items, "Section 4 — Scan dataset")


def summarize_public_cdn(dataset: PublicCdnDataset) -> str:  # repro-lint: disable=RS008 (§4's summary; the datasets bench reports it)
    """Section 4 headline numbers for a Public Resolver/CDN trace."""
    items = [
        Comparison("egress resolver IPs", paper.PUBLIC_CDN_RESOLVER_IPS,
                   len(dataset.resolver_ips)),
        Comparison("queries", paper.PUBLIC_CDN_QUERIES,
                   len(dataset.records), note="generator scale applies"),
        Comparison("hours", paper.PUBLIC_CDN_HOURS,
                   round(dataset.duration_s / 3600, 1)),
        Comparison("all queries carry ECS", "yes",
                   "yes" if all(r.ecs_source_len for r in
                                dataset.records[:1000]) else "no"),
    ]
    return format_comparisons(items, "Section 4 — Public Resolver/CDN dataset")


def summarize_allnames(dataset: AllNamesDataset) -> str:  # repro-lint: disable=RS008 (§4's summary; the datasets bench reports it)
    """Section 4 headline numbers for an All-Names trace."""
    slds = {_sld_of(h) for h in dataset.hostnames}
    items = [
        Comparison("queries", paper.ALLNAMES_QUERIES, len(dataset.records),
                   note="generator scale applies"),
        Comparison("client IPs", paper.ALLNAMES_CLIENT_IPS,
                   len(dataset.client_ips)),
        Comparison("IPv4 /24 client subnets", paper.ALLNAMES_V4_SUBNETS,
                   dataset.v4_subnet_count),
        Comparison("hostnames", paper.ALLNAMES_HOSTNAMES,
                   len(dataset.hostnames)),
        Comparison("second-level domains", paper.ALLNAMES_SLDS, len(slds)),
        Comparison("hours", paper.ALLNAMES_HOURS,
                   round(dataset.duration_s / 3600, 1)),
    ]
    return format_comparisons(items, "Section 4 — All-Names Resolver dataset")
