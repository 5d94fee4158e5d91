"""Section 4 — dataset summary statistics and the columnar substrate.

Regenerates the four datasets and prints the paper-vs-measured summary
counts (scaled by the generators' scale factors).  The columnar
benchmarks time three replay pipelines over the same trace — JSONL
parse → record objects → ``replay_partial_batched``, mmap'd columns →
``replay_partial_columns``, and the out-of-core v2 row-group stream →
``replay_partial_column_groups`` — assert identical results, and record
throughput, on-disk/resident bytes per row, and the streaming replay's
peak heap per row into ``BENCH_datasets.json`` (gated by
``compare_bench.py --check-columnar``).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from repro.analysis import (summarize_allnames, summarize_cdn,
                            summarize_public_cdn, summarize_scan)
from repro.analysis.cache_sim import (replay_partial_batched,
                                      replay_partial_column_groups,
                                      replay_partial_columns)
from repro.datasets import AllNamesBuilder, CdnDatasetBuilder
from repro.datasets.columnar import (ColumnarStore, RowGroupReader,
                                     file_info, write_columnar_stream)
from repro.datasets.records import write_jsonl

#: Group budget of the out-of-core samples: small enough that several
#: groups exist at bench scale, large enough to amortize per-group setup.
ROW_GROUP_ROWS = 32_768


def test_bench_cdn_dataset_generation(benchmark, save_report):
    dataset = benchmark.pedantic(
        lambda: CdnDatasetBuilder(scale=0.01, seed=7,
                                  duration_s=2 * 3600.0).build(),
        rounds=1, iterations=1)
    save_report("section4_cdn", summarize_cdn(dataset))
    ecs_fraction = sum(r.has_ecs for r in dataset.records) / len(dataset.records)
    # Paper: 847M of 1.5B queries carry ECS (≈56%); assert same regime.
    assert 0.3 < ecs_fraction < 0.9


def test_bench_allnames_generation(benchmark, save_report):
    dataset = benchmark.pedantic(
        lambda: AllNamesBuilder(scale=0.3, seed=7).build(),
        rounds=1, iterations=1)
    save_report("section4_allnames", summarize_allnames(dataset))
    assert len(dataset.records) > 10_000
    assert len({r.client_ip for r in dataset.records}) > 100


def test_bench_scan_summary(scan_universe, scan_result, benchmark,
                            save_report):
    def summarize():
        return summarize_scan(scan_result)

    text = benchmark.pedantic(summarize, rounds=1, iterations=1)
    save_report("section4_scan", text)
    # The ECS-ingress fraction lands in the paper's regime (1.53M / 2.74M).
    ecs_fraction = len(scan_result.ecs_ingress) / \
        len(scan_result.responding_ingress)
    assert 0.35 < ecs_fraction < 0.95


def test_bench_public_cdn_summary(public_cdn_dataset, benchmark,
                                  save_report):
    text = benchmark.pedantic(lambda: summarize_public_cdn(public_cdn_dataset),
                              rounds=1, iterations=1)
    save_report("section4_public_cdn", text)
    assert all(r.scope > 0 for r in public_cdn_dataset.records[:1000])


# ---------------------------------------------------------------------------
# Columnar substrate: replay throughput and storage density per format.


def _read_records(path, record_type) -> list:
    """JSONL -> record objects, one ``json.loads`` per line."""
    with open(path, "r", encoding="utf-8") as handle:
        return [record_type(**json.loads(line)) for line in handle
                if line.strip()]


def _resident_object_bytes(path, record_type) -> int:
    """Peak allocation of materializing the trace as record objects."""
    tracemalloc.start()
    records = _read_records(path, record_type)
    size, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del records
    return size


def _bench_columnar_case(datasets_bench, name, records, client_field,
                         tmp_path) -> None:
    record_type = type(records[0])
    jsonl_path = tmp_path / f"{name}.jsonl"
    col_path = tmp_path / f"{name}.col"
    write_jsonl(records, jsonl_path)
    rows = len(records)
    # One group holding every row: the file ColumnarStore.open maps
    # zero-copy, so the flat sample times the replay and not a flatten.
    write_columnar_stream(records, col_path, name, rows)

    # Object pipeline: parse JSONL into record objects, then replay.
    start = time.perf_counter()
    parsed = _read_records(jsonl_path, record_type)
    object_partial = replay_partial_batched(parsed, client_field)
    object_seconds = time.perf_counter() - start

    # Columnar pipeline: map the file, replay straight off the columns.
    start = time.perf_counter()
    with ColumnarStore.open(col_path) as store:
        columnar_partial = replay_partial_columns(store, client_field)
        columnar_seconds = time.perf_counter() - start
    # The one-group file maps zero-copy, so the segment bytes its
    # header lists are what the store had resident.
    resident_columnar = sum(
        column["data_bytes"] + column["null_bytes"] + column["dict_bytes"]
        for column in file_info(col_path)["columns"])

    assert columnar_partial == object_partial

    # Out-of-core pipeline: stream v2 row groups, one resident at a
    # time.  Timed without tracemalloc (it hooks every allocation and
    # would bias the rps against the untraced columnar sample), then a
    # second pass measures the peak heap the streaming replay needs.
    v2_path = tmp_path / f"{name}.v2.col"
    write_columnar_stream(records, v2_path, name, ROW_GROUP_ROWS)

    def _replay_groups():
        with RowGroupReader(v2_path) as reader:
            return replay_partial_column_groups(
                (reader.group(i) for i in range(reader.group_count)),
                client_field)

    start = time.perf_counter()
    rowgroup_partial = _replay_groups()
    rowgroup_seconds = time.perf_counter() - start
    assert rowgroup_partial == object_partial
    tracemalloc.start()
    assert _replay_groups() == object_partial
    rowgroup_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    object_rps = rows / object_seconds if object_seconds else 0.0
    columnar_rps = rows / columnar_seconds if columnar_seconds else 0.0
    rowgroup_rps = rows / rowgroup_seconds if rowgroup_seconds else 0.0
    speedup = columnar_rps / object_rps if object_rps else 0.0
    jsonl_bpr = jsonl_path.stat().st_size / rows
    columnar_bpr = col_path.stat().st_size / rows
    datasets_bench[name] = {
        "rows": rows,
        "object_replay_rps": round(object_rps, 1),
        "columnar_replay_rps": round(columnar_rps, 1),
        "columnar_speedup": round(speedup, 2),
        "jsonl_bytes_per_row": round(jsonl_bpr, 2),
        "columnar_bytes_per_row": round(columnar_bpr, 2),
        "bytes_ratio": round(columnar_bpr / jsonl_bpr, 3),
        "object_resident_bytes_per_row": round(
            _resident_object_bytes(jsonl_path, record_type) / rows, 1),
        "columnar_resident_bytes_per_row": round(resident_columnar / rows,
                                                 1),
        "rowgroup_replay_rps": round(rowgroup_rps, 1),
        "rowgroup_ratio": round(rowgroup_rps / columnar_rps
                                if columnar_rps else 0.0, 3),
        "row_group_rows": ROW_GROUP_ROWS,
        "rowgroup_peak_bytes_per_row": round(rowgroup_peak / rows, 1),
        "cpu_count": os.cpu_count() or 1,
    }
    # The acceptance bars this PR ships under: ≥3x replay throughput,
    # ≤0.5x on-disk bytes per row.  Keep them in-bench so a regression
    # fails here even before the compare_bench gate sees the JSON.
    assert speedup >= 3.0, datasets_bench[name]
    assert columnar_bpr / jsonl_bpr <= 0.5, datasets_bench[name]
    # Out-of-core bars: group streaming costs <= 10% replay throughput
    # and its peak heap stays group-sized, far under the full columns.
    assert rowgroup_rps >= 0.9 * columnar_rps, datasets_bench[name]
    assert rowgroup_peak / rows <= 0.5 * resident_columnar / rows, \
        datasets_bench[name]


def test_bench_columnar_replay_allnames(allnames_dataset, datasets_bench,
                                        tmp_path):
    _bench_columnar_case(datasets_bench, "allnames",
                         list(allnames_dataset.records), "client_ip",
                         tmp_path)


def test_bench_columnar_replay_public_cdn(public_cdn_dataset, datasets_bench,
                                          tmp_path):
    _bench_columnar_case(datasets_bench, "public-cdn",
                         list(public_cdn_dataset.records), "ecs_address",
                         tmp_path)
