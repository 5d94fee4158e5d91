"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, writes
the rendered paper-vs-measured report under ``benchmarks/results/``, and
asserts the *shape* of the result (who wins, rough factors, crossovers).
Bench scales are larger than the test suite's so the distributions are
stable; they remain far below the paper's real datasets.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets import (AllNamesBuilder, CdnDatasetBuilder,
                            PublicCdnBuilder, ScanUniverseBuilder)
from repro.datasets.columnar import ColumnarStore
from repro.measure import Scanner

RESULTS_DIR = Path(__file__).parent / "results"

#: Where the engine throughput numbers land (records/sec at workers=1/4).
BENCH_ENGINE_JSON = RESULTS_DIR / "BENCH_engine.json"

#: Where the hot-path fast-lane numbers land (reference vs fast rec/s).
BENCH_HOTPATH_JSON = RESULTS_DIR / "BENCH_hotpath.json"

#: Where the observability-overhead numbers land (off vs metrics vs
#: traced rec/s on the batched replay path).
BENCH_OBS_JSON = RESULTS_DIR / "BENCH_obs.json"

#: Where the columnar-store numbers land (object vs columnar replay
#: rec/s, on-disk and resident bytes/row per format).
BENCH_DATASETS_JSON = RESULTS_DIR / "BENCH_datasets.json"


def pytest_collection_modifyitems(items) -> None:
    """Mark everything under benchmarks/ so ``-m "not bench"`` skips it.

    The tier-1 suite (``testpaths = tests``) never collects these; the
    marker keeps combined runs (``pytest tests benchmarks``) splittable.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def report_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def engine_bench(report_dir):
    """Collects engine throughput samples; written to BENCH_engine.json.

    Benchmark tests drop ``name -> {records, seconds, records_per_second}``
    entries in; the file is (re)written at session teardown so the repo
    keeps a machine-readable perf trajectory across PRs.
    """
    samples = {}
    yield samples
    if samples:
        BENCH_ENGINE_JSON.write_text(json.dumps(samples, indent=2,
                                                sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def hotpath_bench(report_dir):
    """Collects hot-path samples; written to BENCH_hotpath.json.

    Each sample is ``name -> {records, reference_rps, fast_rps, speedup}``
    — before-vs-after throughput of one fast lane against its readable
    reference implementation (see docs/performance.md).
    """
    samples = {}
    yield samples
    if samples:
        BENCH_HOTPATH_JSON.write_text(json.dumps(samples, indent=2,
                                                 sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def obs_bench(report_dir):
    """Collects observability overhead samples; written to BENCH_obs.json.

    Each sample is ``name -> {records, disabled_rps, metrics_rps,
    traced_rps, ...}`` — throughput of one instrumented path with
    collection off versus on, so ``compare_bench.py`` (which treats any
    ``*_rps`` key as a throughput metric) tracks the disabled-path cost
    across PRs.
    """
    samples = {}
    yield samples
    if samples:
        BENCH_OBS_JSON.write_text(json.dumps(samples, indent=2,
                                             sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def datasets_bench(report_dir):
    """Collects columnar-store samples; written to BENCH_datasets.json.

    Each sample is ``name -> {rows, object_replay_rps,
    columnar_replay_rps, columnar_speedup, jsonl_bytes_per_row,
    columnar_bytes_per_row, bytes_ratio, ...}`` — the JSONL-parse replay
    pipeline versus the mmap'd columnar pipeline over the same trace.
    ``compare_bench.py --check-columnar`` gates on the speedup and the
    bytes ratio.
    """
    samples = {}
    yield samples
    if samples:
        BENCH_DATASETS_JSON.write_text(json.dumps(samples, indent=2,
                                                  sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def save_report(report_dir):
    """Write a rendered report and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        (report_dir / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


@pytest.fixture(scope="session")
def scan_universe():
    return ScanUniverseBuilder(seed=42, ingress_count=500).build()


@pytest.fixture(scope="session")
def scan_result(scan_universe):
    return Scanner(scan_universe).scan()


@pytest.fixture(scope="session")
def cdn_dataset():
    return CdnDatasetBuilder(scale=0.02, seed=42,
                             duration_s=6 * 3600.0).build()


@pytest.fixture(scope="session")
def allnames_dataset():
    return AllNamesBuilder(scale=1.0, seed=42).build()


@pytest.fixture(scope="session")
def public_cdn_dataset():
    return PublicCdnBuilder(scale=0.01, seed=42,
                            duration_s=1800.0).build()


@pytest.fixture(scope="session")
def allnames_store(allnames_dataset):
    return ColumnarStore.from_records(allnames_dataset.records, "allnames")


@pytest.fixture(scope="session")
def public_cdn_store(public_cdn_dataset):
    return ColumnarStore.from_records(public_cdn_dataset.records,
                                      "public-cdn")
