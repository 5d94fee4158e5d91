"""Dataset generators and log-record schemas for the four vantage points."""

from . import paper_numbers
from .allnames import AllNamesBuilder, AllNamesDataset
from .cdn_dataset import CdnDataset, CdnDatasetBuilder, ResolverSpec
from .columnar import (SCHEMAS, ColumnarStore, ColumnarWriter,
                       columnar_to_jsonl, file_info, is_columnar,
                       jsonl_to_columnar, merge_columnar_shards,
                       read_columnar, schema_for, write_columnar_stream)
from .ditl import RootTrace, RootTraceBuilder, generate_root_trace
from .public_cdn import PublicCdnBuilder, PublicCdnDataset
from .records import (AllNamesRecord, CdnQueryRecord, PublicCdnRecord,
                      RootQueryRecord, ScanQueryRecord, iter_jsonl,
                      read_jsonl, shard_path, write_csv, write_jsonl)
from .scan_dataset import (ChainSpec, EgressSpec, ScanUniverse,
                           ScanUniverseBuilder)
from .workload import (ClientPopulation, HostnameUniverse, SldPolicy,
                       ZipfSampler, assign_sld_policies,
                       merge_sorted_records, poisson_arrivals)

__all__ = [
    "AllNamesBuilder", "AllNamesDataset", "AllNamesRecord", "CdnDataset",
    "CdnDatasetBuilder", "CdnQueryRecord", "ChainSpec", "ClientPopulation",
    "ColumnarStore", "ColumnarWriter", "EgressSpec",
    "HostnameUniverse", "PublicCdnBuilder", "PublicCdnDataset",
    "PublicCdnRecord", "ResolverSpec", "RootQueryRecord", "RootTrace",
    "RootTraceBuilder", "SCHEMAS", "ScanQueryRecord", "ScanUniverse",
    "ScanUniverseBuilder", "SldPolicy", "ZipfSampler", "assign_sld_policies",
    "columnar_to_jsonl", "file_info", "generate_root_trace", "is_columnar",
    "iter_jsonl", "jsonl_to_columnar", "merge_columnar_shards",
    "merge_sorted_records", "paper_numbers",
    "poisson_arrivals", "read_columnar", "read_jsonl", "schema_for",
    "shard_path", "write_columnar_stream", "write_csv", "write_jsonl",
]
