"""Section 4 — dataset summary statistics and the columnar substrate.

Regenerates the four datasets and prints the paper-vs-measured summary
counts (scaled by the generators' scale factors).  The columnar
benchmarks time three replay pipelines over the same trace — JSONL
parse → record objects → ``replay_partial_batched``, mmap'd columns →
``KeyedTrace`` → ``replay_partial_columns``, and the out-of-core v2
row-group stream → ``replay_partial_column_groups`` — assert identical
results, print throughput and on-disk bytes per row through
``save_report``, and hold the columnar substrate to its three bars.
"""

from __future__ import annotations

import json
import statistics

from repro.analysis import (summarize_allnames, summarize_cdn,
                            summarize_public_cdn, summarize_scan)
from repro.analysis.cache_sim import (KeyedTrace, replay_partial_batched,
                                      replay_partial_column_groups,
                                      replay_partial_columns)
from repro.datasets import AllNamesBuilder, CdnDatasetBuilder
from repro.datasets.columnar import RowGroupReader, write_columnar_stream
from repro.datasets.records import write_jsonl

from bench_timing import alternating_rounds, median_ratio

#: Group budget of the out-of-core samples: small enough that several
#: groups exist at bench scale, large enough to amortize per-group setup.
ROW_GROUP_ROWS = 32_768
#: Alternating rounds behind each timed bar, which holds the median of
#: its per-round ratios: columnar/object clears its bar by a wide margin
#: and its object pipeline is slow, row-group/flat sits within noise of
#: its bar and both its pipelines are fast.
SPEEDUP_ROUNDS = 3
ROWGROUP_ROUNDS = 9


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


def _bench_columnar_case(save_report, name, records, client_field,
                         tmp_path) -> None:
    record_type = type(records[0])
    rows = len(records)
    jsonl_path = tmp_path / f"{name}.jsonl"
    col_path = tmp_path / f"{name}.col"
    v2_path = tmp_path / f"{name}.v2.col"
    write_jsonl(records, jsonl_path)
    # One group holding every row: the flat sample keys the trace in one
    # piece, the row-group sample one group at a time.
    write_columnar_stream(records, col_path, name, rows)
    write_columnar_stream(records, v2_path, name, ROW_GROUP_ROWS)

    def object_replay():
        """Parse JSONL into record objects, then replay."""
        return replay_partial_batched(_read_records(jsonl_path, record_type),
                                      client_field)

    def columnar_replay():
        """Map the file, key its columns, replay them."""
        with RowGroupReader(col_path) as reader:
            return replay_partial_columns(KeyedTrace(
                reader.walk(), reader.rows, client_field))

    def rowgroup_replay():
        """Stream v2 row groups, one resident at a time."""
        with RowGroupReader(v2_path) as reader:
            return replay_partial_column_groups(
                (reader.group(i) for i in range(reader.group_count)),
                client_field)

    # One round's row-group ratio spreads 0.7-0.96 on a 2-core host, so
    # each bar holds the median of its rounds' ratios.
    partials, seconds = alternating_rounds({"object": object_replay,
                                            "columnar": columnar_replay},
                                           SPEEDUP_ROUNDS)
    grouped, group_seconds = alternating_rounds(
        {"columnar": columnar_replay, "rowgroup": rowgroup_replay},
        ROWGROUP_ROUNDS)
    assert partials["columnar"] == partials["object"]
    assert grouped["rowgroup"] == partials["object"]

    speedup = median_ratio(seconds, "object", "columnar")
    bytes_ratio = col_path.stat().st_size / jsonl_path.stat().st_size
    rowgroup_ratio = median_ratio(group_seconds, "columnar", "rowgroup")
    seconds["rowgroup"] = group_seconds["rowgroup"]
    save_report(f"columnar_replay_{name}", (
        f"{name}, {rows} rows, medians of alternating rounds: "
        + ", ".join(f"{pipeline} {rows / statistics.median(s):,.0f} rec/s"
                    for pipeline, s in seconds.items())
        + f"\nbytes per row: jsonl {jsonl_path.stat().st_size / rows:.2f}, "
        f"columnar {col_path.stat().st_size / rows:.2f}"
        f"\ncolumnar/object replay = {speedup:.2f}x (bar >= 3.0, "
        f"{SPEEDUP_ROUNDS} rounds)"
        f"\ncolumnar/jsonl bytes = {bytes_ratio:.3f} (bar <= 0.5)"
        f"\nrowgroup/columnar replay = {rowgroup_ratio:.3f} "
        f"(bar >= 0.9, {ROW_GROUP_ROWS}-row groups, {ROWGROUP_ROUNDS} "
        f"rounds)"))
    # The acceptance bars the columnar substrate shipped under: >= 3x
    # replay throughput, <= 0.5x on-disk bytes per row, and group
    # streaming costs at most 10% replay throughput.  Streaming memory is
    # one group plus O(distinct keys); tests/test_out_of_core.py bounds it.
    assert speedup >= 3.0
    assert bytes_ratio <= 0.5
    assert rowgroup_ratio >= 0.9


def test_bench_columnar_replay_allnames(allnames_dataset, save_report,
                                        tmp_path):
    _bench_columnar_case(save_report, "allnames",
                         list(allnames_dataset.records), "client_ip",
                         tmp_path)


def test_bench_columnar_replay_public_cdn(public_cdn_dataset, save_report,
                                          tmp_path):
    _bench_columnar_case(save_report, "public-cdn",
                         list(public_cdn_dataset.records), "ecs_address",
                         tmp_path)
