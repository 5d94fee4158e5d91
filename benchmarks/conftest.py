"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, writes
the rendered paper-vs-measured report under ``benchmarks/results/``, and
asserts the *shape* of the result (who wins, rough factors, crossovers).
Bench scales are larger than the test suite's so the distributions are
stable; they remain far below the paper's real datasets.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets import (AllNamesBuilder, CdnDatasetBuilder,
                            PublicCdnBuilder, ScanUniverseBuilder)
from repro.datasets.columnar import ColumnarStore
from repro.measure import Scanner

RESULTS_DIR = Path(__file__).parent / "results"


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
