"""Dataset generators and log-record schemas for the four vantage points."""

from ..auth.scan_experiment import ScanQueryRecord
from . import paper_numbers
from .allnames import AllNamesBuilder, AllNamesDataset
from .cdn_dataset import CdnDataset, CdnDatasetBuilder, ResolverSpec
from .columnar import (SCHEMAS, ColumnarStore, ColumnarWriter,
                       columnar_to_jsonl, convert_columnar, file_info,
                       merge_columnar_shards, schema_for,
                       trace_format, write_columnar_stream)
from .ditl import RootTrace, RootTraceBuilder
from .public_cdn import PublicCdnBuilder, PublicCdnDataset
from .records import (AllNamesRecord, CdnQueryRecord, PublicCdnRecord,
                      RootQueryRecord, TraceFormatError, shard_path,
                      write_jsonl)
from .scan_dataset import (ChainSpec, EgressSpec, ScanUniverse,
                           ScanUniverseBuilder)
from .workload import SldPolicy, ZipfSampler, poisson_arrivals

__all__ = [
    "AllNamesBuilder", "AllNamesDataset", "AllNamesRecord", "CdnDataset",
    "CdnDatasetBuilder", "CdnQueryRecord", "ChainSpec", "ColumnarStore",
    "ColumnarWriter", "EgressSpec", "PublicCdnBuilder", "PublicCdnDataset",
    "PublicCdnRecord", "ResolverSpec", "RootQueryRecord", "RootTrace",
    "RootTraceBuilder", "SCHEMAS", "ScanQueryRecord", "ScanUniverse",
    "ScanUniverseBuilder", "SldPolicy", "TraceFormatError", "ZipfSampler",
    "columnar_to_jsonl", "convert_columnar", "file_info",
    "merge_columnar_shards", "paper_numbers", "poisson_arrivals",
    "schema_for", "shard_path", "trace_format",
    "write_columnar_stream", "write_jsonl",
]
