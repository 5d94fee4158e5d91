"""Per-section analyses reproducing the paper's tables and figures."""

from .cache_sim import (ReplayPartial, ReplayResult, cdf_points,
                        client_sweep, fig1_series, fig2_series, fig3_series,
                        merge_partials, percentile, replay, replay_partial)
from .caching_behavior import (CachingBehaviorAnalysis,
                               analyze_caching_behavior)
from .discovery import DiscoveryAnalysis, analyze_discovery
from .export import (export_all, export_fig1, export_fig2, export_fig3,
                     export_fig45, export_fig67)
from .flattening import (FlatteningLab, FlatteningTimings,
                         run_flattening_case_study)
from .hidden import (HiddenCombination, HiddenResolverAnalysis,
                     analyze_hidden_resolvers)
from .mapping_quality import (MappingQualityLab, PrefixLengthSeries,
                              crossover_prefix_length,
                              measure_mapping_quality)
from .poisoning import (PoisoningOutcome, compare_blast_radius,
                        poisoning_report, run_poisoning_experiment)
from .prefixlen import (Table1, build_table1, cdn_prefix_profiles,
                        scan_prefix_profiles)
from .privacy import (PrivacyOutcome, PrivacyStudy, run_privacy_study)
from .probing import (ProbingAnalysis, RootViolationAnalysis,
                      analyze_probing, analyze_root_violations)
from .report import (Comparison, cdf_table, format_comparisons,
                     format_network_stats, format_table)
from .summary import (summarize_allnames, summarize_cdn,
                      summarize_public_cdn, summarize_scan)
from .unroutable import Table2, UnroutableLab, run_table2
from .whitelist_compare import (ResolverOutcome, WhitelistComparison,
                                run_whitelist_comparison)

__all__ = [
    "CachingBehaviorAnalysis", "Comparison", "DiscoveryAnalysis",
    "FlatteningLab", "FlatteningTimings", "HiddenCombination",
    "HiddenResolverAnalysis", "MappingQualityLab", "PrefixLengthSeries",
    "PoisoningOutcome", "PrivacyOutcome", "PrivacyStudy",
    "ProbingAnalysis", "ReplayPartial", "ReplayResult", "ResolverOutcome",
    "RootViolationAnalysis", "Table1", "Table2", "UnroutableLab",
    "WhitelistComparison", "analyze_caching_behavior", "analyze_discovery",
    "analyze_hidden_resolvers", "analyze_probing",
    "analyze_root_violations", "build_table1", "cdf_points", "cdf_table",
    "compare_blast_radius", "poisoning_report", "run_poisoning_experiment",
    "run_privacy_study", "client_sweep",
    "export_all", "export_fig1", "export_fig2", "export_fig3",
    "export_fig45", "export_fig67",
    "cdn_prefix_profiles", "crossover_prefix_length", "fig1_series",
    "fig2_series", "fig3_series", "format_comparisons",
    "format_network_stats", "format_table",
    "measure_mapping_quality", "merge_partials", "percentile",
    "replay", "replay_partial",
    "run_flattening_case_study", "run_table2", "run_whitelist_comparison",
    "scan_prefix_profiles",
    "summarize_allnames", "summarize_cdn", "summarize_public_cdn",
    "summarize_scan",
]
