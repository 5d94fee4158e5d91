"""Authoritative-side servers: zones, CDNs, the scan experiment, flattening."""

from .cdn import (CdnAuthoritative, EdgePool, MappingDecision,
                  UnroutablePolicy, build_edge_pools)
from .flattening import FlatteningProvider
from .hierarchy import DnsHierarchy
from .scan_experiment import (ScanExperimentServer, decode_probe_name,
                              encode_probe_name)
from .server import (AuthLogRecord, AuthoritativeServer, DnsServer,
                     ScopeFunction, fixed_scope, source_minus)

__all__ = [
    "AuthLogRecord", "AuthoritativeServer", "CdnAuthoritative",
    "DnsHierarchy", "DnsServer", "EdgePool", "FlatteningProvider",
    "MappingDecision", "ScanExperimentServer", "ScopeFunction",
    "UnroutablePolicy", "build_edge_pools",
    "decode_probe_name", "encode_probe_name", "fixed_scope", "source_minus",
]
