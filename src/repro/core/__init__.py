"""Core ECS machinery: scope-keyed caching, policies, and classifiers."""

from .cache import (CacheStats, EcsCache, ScopeMode, ScopeTracker,
                    effective_scope)
from .classify import (CachingCategory, CachingProbeOutcome,
                       PrefixProfile, ProbingCategory,
                       ProbingClassification, QueryObservation,
                       classify_caching, classify_probing,
                       prefix_length_profile)
from .policies import (COMPLIANT_POLICY, AuthoritativeEcsState, EcsDecision,
                       EcsPolicy, ProbingEngine, ProbingStrategy,
                       build_query_ecs)

__all__ = [
    "AuthoritativeEcsState", "COMPLIANT_POLICY", "CacheStats",
    "CachingCategory", "CachingProbeOutcome", "EcsCache", "EcsDecision",
    "EcsPolicy", "PrefixProfile", "ProbingCategory",
    "ProbingClassification", "ProbingEngine", "ProbingStrategy",
    "QueryObservation", "ScopeMode", "ScopeTracker",
    "build_query_ecs", "classify_caching", "classify_probing",
    "effective_scope", "prefix_length_profile",
]
