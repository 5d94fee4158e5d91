"""Command-line interface: regenerate the paper's experiments from a shell.

Usage::

    python -m repro.cli <command> [options]
    repro-ecs <command> [options]            # after pip install

Commands
--------
scan        run the active campaign: scan → discovery → Table 1 → hidden
census      classify a CDN-vantage resolver population (sections 6.1/6.2)
caching     run the section 6.3 twin-query caching experiment
blowup      the section 7 cache replays (Figures 1–3)
pitfalls    the section 8 labs (Table 2, Figures 6–8)
generate    write a synthetic dataset to a trace file (JSONL or columnar)
replay      run the section 7 cache replay over a saved trace
convert     convert a trace between JSONL and the columnar format
dataset     inspect an on-disk trace file (``dataset info FILE``)
chaos       run the scan campaign under a fault-injection preset
all         every analysis command, sequentially

The invariant linter is not a command here: run ``python -m
repro.staticcheck`` (``docs/static-analysis.md``).

Every command accepts ``--seed`` and a size knob and writes rendered
reports to ``--out`` (default: print to stdout only); ``--quiet``
silences stdout; ``--report`` adds the per-shard engine breakdown and,
after the command, a per-layer cost table (calls, self seconds and
share of wall per span name: ``docs/observability.md``).  For a
function-level profile, run ``python -m cProfile -s cumulative -m
repro.cli ...``.  ``generate``, ``blowup``, ``replay``, ``chaos`` and
``all`` also take ``--workers N`` / ``--shards K``: work is split into
K deterministically-seeded shards executed on N processes via compact
shard specs, and the merged output is byte-identical for every N (see
``docs/engine.md``).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO

from .analysis import (analyze_caching_behavior, analyze_discovery,
                       analyze_hidden_resolvers, analyze_probing,
                       analyze_root_violations, build_table1, cdf_table,
                       fig2_series, fig3_series, format_network_stats, format_table,
                       run_flattening_case_study, run_table2, summarize_scan)
from .analysis.flattening import FlatteningLab
from .analysis.mapping_quality import (MappingQualityLab,
                                       crossover_prefix_length,
                                       measure_mapping_quality)
from .analysis.unroutable import UnroutableLab
from .datasets import CdnDatasetBuilder, ScanUniverseBuilder
from .datasets.columnar import (DEFAULT_ROW_GROUP_ROWS, SCHEMAS,
                                columnar_to_jsonl, convert_columnar,
                                file_info, trace_input)
from .datasets.ditl import RootTraceBuilder
from .datasets.records import TraceFormatError
from .engine import (DEFAULT_SHARDS, ShardSpec, WorkerPool, generate_columnar,
                     generate_jsonl)
from .engine.executor import EngineReport
from .engine.seeding import world_seed
from .engine.replay import (client_sweep_sharded, fig1_sharded,
                            replay_columnar_sharded, replay_jsonl_sharded)
from .faults.chaos import run_chaos
from .faults.presets import preset, preset_names
from .measure import Scanner
from .obs import ObsSession, observe
from .obs import live as obs_live
from .obs.export import (write_chrome_trace, write_prometheus,
                         write_spans_jsonl, write_text_atomic)
from .obs.trace import DEFAULT_SPAN_LIMIT, Tracer
from .units import human_bytes, human_count


class _Reporter:
    """Collects report sections, printing and optionally saving them."""

    def __init__(self, out_dir: Optional[str], quiet: bool = False,
                 show_report: bool = False):
        self.out_dir = Path(out_dir) if out_dir else None
        self.quiet = quiet
        self.show_report = show_report
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def emit(self, name: str, text: str) -> None:
        """Render one report section to stdout and (optionally) a file.

        ``name`` may contain ``/`` separators; parent directories are
        created per file, so nested layouts like ``fig/1`` just work.
        """
        if not self.quiet:
            print(text)
            print()
        if self.out_dir:
            write_text_atomic(self.out_dir / f"{name}.txt", (text, "\n"))

    def note(self, text: str) -> None:
        """Print an incidental status line (never written to files).

        Engine throughput and progress lines go through here so shard
        timing — which varies run to run — can never leak into the
        deterministic report files, and ``--quiet`` silences them in
        shard workers.
        """
        if not self.quiet:
            print(text)

    def engine(self, report: EngineReport) -> None:
        """Print an engine run's throughput note.

        The single choke point for engine output: every engine-flag
        command routes through here, so ``--quiet`` suppresses the notes
        uniformly and ``--report`` switches all of them from the one-line
        summary to the full per-shard breakdown.  Like :meth:`note`,
        never written to report files.
        """
        self.note(report.report() if self.show_report else report.summary())


class _LiveProgress:
    """Rate-limited single-line progress renderer for ``--live``.

    Installed as the :class:`~repro.obs.live.LiveSink` beat callback; it
    rewrites one stderr line (``\\r``) at most ~5 times a second with
    the beat's task as the sink's ledger (``/run``) counts it, so a long
    sharded run narrates itself without flooding the terminal.
    Strictly out-of-band: it writes to stderr only, never to reports,
    so determinism diffs never see it.
    """

    #: Minimum seconds between repaints (run_end always repaints).
    _INTERVAL = 0.2

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._last = 0.0
        self._wrote = False

    def __call__(self, sink: obs_live.LiveSink,
                 beat: obs_live.Heartbeat) -> None:
        if beat.kind not in ("run_start", "shard_end", "progress",
                             "run_end"):
            return
        now = time.monotonic()
        if beat.kind != "run_end" and now - self._last < self._INTERVAL:
            return
        self._last = now
        task = sink.run_status()["tasks"].get(beat.task)
        if task is None:
            return
        self._stream.write(
            f"\r[live] {beat.task}: {task['done']}/{task['shards_total']} "
            f"shards, {human_count(task['records'])} records")
        self._stream.flush()
        self._wrote = True

    def finish(self) -> None:
        """Terminate the progress line so later output starts clean."""
        if self._wrote:
            self._stream.write("\n")
            self._stream.flush()


def cmd_scan(args: argparse.Namespace, reporter: _Reporter) -> None:
    """The active campaign: scan, discovery, Table 1, hidden resolvers."""
    universe = ScanUniverseBuilder(seed=args.seed,
                                   ingress_count=args.ingress).build()
    result = Scanner(universe).scan()
    reporter.emit("scan_summary", summarize_scan(result))
    discovery = analyze_discovery(universe, result,
                                  world_seed(args.seed, "analysis.discovery"))
    reporter.emit("discovery", discovery.report())
    reporter.emit("table1_scan",
                  build_table1(scan_result=result).report())
    reporter.emit("hidden",
                  analyze_hidden_resolvers(universe, result).report())
    reporter.emit("network_scan", format_network_stats(
        universe.net.stats, title="Network traffic (scan campaign)"))


def cmd_census(args: argparse.Namespace, reporter: _Reporter) -> None:
    """CDN-vantage classification: sections 6.1/6.2 plus the DITL check."""
    dataset = CdnDatasetBuilder(scale=args.scale, seed=args.seed,
                                duration_s=args.hours * 3600.0).build()
    reporter.emit("probing", analyze_probing(dataset).report())
    reporter.emit("table1_cdn", build_table1(cdn_dataset=dataset).report())
    trace = RootTraceBuilder(resolver_count=400, violators=15,
                             seed=args.seed).build()
    reporter.emit("root_violations", analyze_root_violations(trace).report())


def cmd_caching(args: argparse.Namespace, reporter: _Reporter) -> None:
    """The section 6.3 twin-query caching-behavior experiment."""
    universe = ScanUniverseBuilder(seed=args.seed,
                                   ingress_count=args.ingress).build()
    reporter.emit("caching_behavior",
                  analyze_caching_behavior(universe).report())
    reporter.emit("network_caching", format_network_stats(
        universe.net.stats, title="Network traffic (caching experiment)"))


def cmd_blowup(args: argparse.Namespace, reporter: _Reporter) -> None:
    """The section 7 cache replays: Figures 1, 2 and 3."""
    public_cdn = ShardSpec.create("public-cdn", shard_count=args.shards,
                                  scale=args.scale, seed=args.seed,
                                  duration_s=args.hours * 3600.0)
    series, engine_report = fig1_sharded(public_cdn, ttls=(20, 40, 60),
                                         workers=args.workers)
    reporter.engine(engine_report)
    reporter.emit("fig1", cdf_table(
        {f"TTL {t}s": v for t, v in series.items()},
        title="Figure 1 — cache blow-up factor CDF"))

    allnames = ShardSpec.create("allnames", shard_count=args.shards,
                                scale=args.allnames_scale, seed=args.seed)
    # The sweep samples the builder's client list, in the builder's order
    # and silent clients included.
    clients = allnames.make_builder().client_ips()
    with tempfile.TemporaryDirectory(prefix="repro-blowup-") as scratch:
        trace = Path(scratch) / "allnames.col"
        _, engine_report = generate_columnar(allnames, trace,
                                             workers=args.workers)
        reporter.engine(engine_report)
        # Three samples per fraction, as the paper averages three runs.
        sweep, engine_report = client_sweep_sharded(
            trace, clients, fractions=(0.1, 0.25, 0.5, 0.75, 1.0),
            seeds=[world_seed(args.seed, f"analysis.client_sweep.run{run}")
                   for run in (1, 2, 3)], workers=args.workers)
    reporter.engine(engine_report)
    reporter.emit("fig2", format_table(
        ("clients", "blow-up"),
        [(f"{f:.0%}", round(b, 2)) for f, b in fig2_series(sweep)],
        title="Figure 2 — blow-up vs client fraction"))
    reporter.emit("fig3", format_table(
        ("clients", "no ECS", "with ECS"),
        [(f"{f:.0%}", f"{a:.1%}", f"{b:.1%}")
         for f, a, b in fig3_series(sweep)],
        title="Figure 3 — cache hit rate"))


def cmd_pitfalls(args: argparse.Namespace, reporter: _Reporter) -> None:
    """The section 8 labs: Table 2 and Figures 6-8."""
    table2 = run_table2(UnroutableLab.build(seed=args.seed))
    reporter.emit("table2", table2.report())

    lab = MappingQualityLab.build(probe_count=args.probes, seed=args.seed)
    for cdn, qname, fig in ((lab.cdn1, lab.cdn1_qname, "fig6"),
                            (lab.cdn2, lab.cdn2_qname, "fig7")):
        series = measure_mapping_quality(
            lab, cdn, qname,
            seed=world_seed(args.seed, f"analysis.mapping_quality.{fig}"))
        cliff = crossover_prefix_length(series)
        reporter.emit(fig, series.report(
            f"{fig.upper()} — time-to-connect by prefix length "
            f"(cliff at /{cliff})"))

    timings = run_flattening_case_study(FlatteningLab.build())
    reporter.emit("fig8", timings.report())


def cmd_generate(args: argparse.Namespace, reporter: _Reporter) -> None:
    """Write one synthetic dataset to a trace file, JSONL or columnar
    (``--format``).

    Generation is sharded through :mod:`repro.engine` by spec dispatch:
    workers rebuild the dataset builder from a compact
    :class:`~repro.engine.sharding.ShardSpec` and write their own
    ``<file>.shardNN`` siblings, then an order-stable merge produces the
    final trace and removes the shard files.  No record payloads cross
    the pool boundary, and the merged bytes are identical for any
    ``--workers`` value.
    """
    if args.dataset == "allnames":
        spec = ShardSpec.create("allnames", shard_count=args.shards,
                                scale=args.scale, seed=args.seed)
    else:  # public-cdn, cdn: same knobs, different registry name
        spec = ShardSpec.create(args.dataset, shard_count=args.shards,
                                scale=args.scale, seed=args.seed,
                                duration_s=args.hours * 3600.0)
    if args.format == "columnar":
        count, engine_report = generate_columnar(
            spec, args.file, workers=args.workers,
            row_group_rows=args.row_group_rows)
    else:
        if args.row_group_rows is not None:
            raise SystemExit("--row-group-rows requires --format columnar")
        count, engine_report = generate_jsonl(
            spec, args.file, workers=args.workers)
    reporter.engine(engine_report)
    reporter.note(f"wrote {count} {args.dataset} records to {args.file}")


def cmd_convert(args: argparse.Namespace, reporter: _Reporter) -> None:
    """Convert a trace between JSONL and the columnar layout.

    The output is columnar when the source is JSONL or when
    ``--row-group-rows`` or ``--bucket-shards`` is given, JSONL
    otherwise; every direction streams with bounded memory.  JSONL ->
    columnar -> JSONL round-trips byte-identically.
    ``--row-group-rows`` sets how many rows a columnar output group
    holds; the bytes depend only on the rows and the size.
    ``--bucket-shards N`` pre-buckets a columnar output by qname for
    out-of-core row-range replay with ``--shards N``, from either
    source format; ``dst`` is only ever replaced by the finished trace.
    A source that is not a trace of its kind exits 1 naming the file,
    after a ``file_rejected`` beat when the live plane is on.
    """
    with trace_input(f"convert:{args.dataset}", args.src,
                     args.dataset) as fmt:
        if (fmt == "columnar" and args.row_group_rows is None
                and args.bucket_shards is None):
            target, count = "jsonl", columnar_to_jsonl(args.src, args.dst,
                                                       args.dataset)
        else:
            target, count = "columnar", convert_columnar(
                args.src, args.dst, args.dataset,
                row_group_rows=args.row_group_rows,
                buckets=args.bucket_shards)
    reporter.note(f"converted {count} {args.dataset} records: "
                  f"{args.src} -> {args.dst} ({target})")


def _quantity(value: int, fmt: Callable[[int], str]) -> str:
    """Render a count/size humanized, keeping the exact integer visible.

    Small values where the humanized form *is* the exact value ("875 B",
    "312") render once; larger ones render as ``1.4 GiB (1475739648)``.
    """
    pretty = fmt(value)
    if pretty in (str(value), f"{value} B"):
        return pretty
    return f"{pretty} ({value})"


def cmd_dataset(args: argparse.Namespace, reporter: _Reporter) -> None:
    """Inspect an on-disk dataset file (``dataset info FILE``).

    For a columnar trace the report comes from the header alone — no
    segment is read — and breaks the footprint down per column; for a
    JSONL trace it falls back to line/byte counts.  Row and byte totals
    render through :mod:`repro.units` (``1.4 GiB``, ``3.8B rows``) with
    the exact integer alongside, so the table stays grep-able.
    """
    path = Path(args.file)
    with trace_input("dataset:info", args.file) as fmt:
        if fmt == "columnar":
            info = file_info(path)
        else:
            size = path.stat().st_size
            with open(path, "r", encoding="utf-8") as fh:
                lines = sum(1 for line in fh if line.strip())
    if fmt == "jsonl":
        reporter.emit("dataset_info", format_table(
            ("property", "value"),
            [("format", "jsonl"),
             ("records", _quantity(lines, human_count)),
             ("file bytes", _quantity(size, human_bytes)),
             ("bytes/row", round(size / lines, 2) if lines else 0.0)],
            title=f"JSONL trace {path}"))
        return
    rows = [("schema", info["schema"]),
            ("format version", info["version"]),
            ("rows", _quantity(info["rows"], human_count)),
            ("file bytes", _quantity(info["file_bytes"], human_bytes)),
            ("bytes/row", round(info["bytes_per_row"], 2)),
            ("header bytes", _quantity(info["header_bytes"], human_bytes))]
    for label, key in (("row groups", "row_groups"),
                       ("row-group rows", "row_group_rows"),
                       ("qname buckets", "buckets")):
        rows.append((label, "-" if info[key] is None else info[key]))
    reporter.emit("dataset_info", format_table(
        ("property", "value"), rows, title=f"Columnar trace {path}"))
    reporter.emit("dataset_columns", format_table(
        ("column", "kind", "data B", "null B", "dict B", "dict entries"),
        [(c["name"], c["kind"], c["data_bytes"], c["null_bytes"],
          c["dict_bytes"], c["dict_entries"])
         for c in info["columns"]],
        title="Per-column segments"))


def cmd_replay(args: argparse.Namespace, reporter: _Reporter) -> None:
    """Run the section 7 cache replay over a saved trace.

    The trace is partitioned by qname into ``--shards`` shards replayed
    on ``--workers`` processes; per-shard partials merge into one
    result, byte-identical for any worker count.  The file format is
    auto-detected: for a columnar trace every worker opens the same
    file and replays packed columns; for JSONL the parent routes raw
    lines and workers parse their own shard.  Either way no record
    objects cross the pool boundary, and both formats of one trace
    render the identical report.
    """
    with trace_input(f"replay:{args.dataset}", args.file,
                     args.dataset) as fmt:
        replay = (replay_columnar_sharded if fmt == "columnar"
                  else replay_jsonl_sharded)
        result, engine_report = replay(args.file, args.dataset,
                                       shards=args.shards,
                                       workers=args.workers)
    reporter.engine(engine_report)
    reporter.emit("replay", format_table(
        ("metric", "value"),
        [("records replayed", engine_report.total_records),
         ("peak cache with ECS", result.max_size_ecs),
         ("peak cache without ECS", result.max_size_no_ecs),
         ("blow-up factor", round(result.blowup, 2)),
         ("hit rate with ECS", f"{result.hit_rate_ecs:.1%}"),
         ("hit rate without ECS", f"{result.hit_rate_no_ecs:.1%}")],
        title=f"Replay of {args.file}"))


def cmd_chaos(args: argparse.Namespace, reporter: _Reporter) -> None:
    """The scan campaign under a composed fault plan (repro.faults).

    The plan binds its random streams from ``--fault-seed`` per shard,
    so the rendered report is byte-identical for every ``--workers``
    value — the CI chaos-smoke job diffs two runs to prove it.
    """
    plan = preset(args.preset)
    result, engine_report = run_chaos(
        plan, seed=args.seed, fault_seed=args.fault_seed,
        ingress=args.ingress, shards=args.shards, workers=args.workers)
    reporter.engine(engine_report)
    reporter.emit("chaos", result.report())


#: Analysis commands, in the order ``all`` runs them.
_ANALYSIS_COMMANDS: Dict[str, Callable[[argparse.Namespace, _Reporter],
                                       None]] = {
    "scan": cmd_scan,
    "census": cmd_census,
    "caching": cmd_caching,
    "blowup": cmd_blowup,
    "pitfalls": cmd_pitfalls,
}

_COMMANDS: Dict[str, Callable[[argparse.Namespace, _Reporter], None]] = {
    **_ANALYSIS_COMMANDS,
    "generate": cmd_generate,
    "replay": cmd_replay,
    "convert": cmd_convert,
    "dataset": cmd_dataset,
    "chaos": cmd_chaos,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-ecs",
        description="Reproduce 'A Look at the ECS Behavior of DNS "
                    "Resolvers' (IMC 2019)")
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed for every generator")
    parser.add_argument("--out", default=None,
                        help="directory to write rendered reports into")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout (reports still write to --out);"
                             " keeps shard workers from interleaving output")
    parser.add_argument("--report", action="store_true",
                        help="print the full per-shard engine breakdown "
                             "instead of the one-line summary, and after "
                             "the command its per-layer cost table")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="collect runtime metrics and write them in "
                             "Prometheus text format (out-of-band: reports "
                             "are byte-identical with or without)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="record query-lifecycle spans and write them "
                             "as JSONL (out-of-band, like --metrics-out)")
    parser.add_argument("--serve-metrics", nargs="?", type=int, const=0,
                        default=None, metavar="PORT",
                        help="serve live telemetry over HTTP while the "
                             "command runs: /metrics (Prometheus text), "
                             "/healthz, /run (JSON progress); pass an "
                             "explicit PORT before the subcommand "
                             "(0 picks a free port)")
    parser.add_argument("--timeline-out", default=None, metavar="FILE",
                        help="export the run timeline after the command "
                             "as Chrome trace-event JSON (opens in "
                             "Perfetto), whatever FILE's suffix")
    parser.add_argument("--live", action="store_true",
                        help="render a one-line live progress ticker on "
                             "stderr (out-of-band, like --serve-metrics)")
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError(
                f"must be a positive integer, got {value!r}")
        return parsed

    def add_engine_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--workers", type=positive_int, default=1,
                         help="worker processes for sharded execution "
                              "(output is byte-identical for any value)")
        cmd.add_argument("--shards", type=positive_int, default=DEFAULT_SHARDS,
                         help="shard count; part of the experiment's "
                              "identity, independent of --workers")

    scan = sub.add_parser("scan", help="active scan campaign (sections 4/5/8.2)")
    scan.add_argument("--ingress", type=int, default=300,
                      help="open ingress resolvers to simulate")

    census = sub.add_parser("census",
                            help="CDN-vantage classification (sections 6.1/6.2)")
    census.add_argument("--scale", type=float, default=0.01,
                        help="population scale vs the paper's 4147 resolvers")
    census.add_argument("--hours", type=float, default=4.0,
                        help="simulated log duration")

    caching = sub.add_parser("caching",
                             help="twin-query caching experiment (section 6.3)")
    caching.add_argument("--ingress", type=int, default=100)

    blowup = sub.add_parser("blowup", help="cache replays (section 7)")
    blowup.add_argument("--scale", type=float, default=0.005,
                        help="Public Resolver/CDN scale")
    blowup.add_argument("--allnames-scale", type=float, default=0.3)
    blowup.add_argument("--hours", type=float, default=0.5)
    add_engine_flags(blowup)

    pitfalls = sub.add_parser("pitfalls", help="section 8 labs")
    pitfalls.add_argument("--probes", type=int, default=120,
                          help="Atlas-like probes for Figs 6/7")

    generate = sub.add_parser("generate",
                              help="write a synthetic dataset as a trace "
                                   "file")
    generate.add_argument("dataset",
                          choices=("allnames", "public-cdn", "cdn"))
    generate.add_argument("file",
                          help="output trace path (JSONL, or columnar "
                               "with --format columnar)")
    generate.add_argument("--scale", type=float, default=0.05)
    generate.add_argument("--hours", type=float, default=1.0)
    generate.add_argument("--format", choices=("jsonl", "columnar"),
                          default="jsonl",
                          help="output trace format (columnar: packed "
                               "columns, mmap-able, ~2.5x smaller)")
    generate.add_argument("--row-group-rows", type=positive_int,
                          default=None,
                          help="with --format columnar: rows per row "
                               "group of the output file (default "
                               f"{DEFAULT_ROW_GROUP_ROWS}); the group "
                               "size and nothing else: --shards is what "
                               "bounds a worker's memory")
    add_engine_flags(generate)

    replay_cmd = sub.add_parser("replay",
                                help="cache replay over a saved trace")
    replay_cmd.add_argument("dataset", choices=("allnames", "public-cdn"))
    replay_cmd.add_argument("file",
                            help="input trace path (JSONL or columnar; "
                                 "auto-detected)")
    add_engine_flags(replay_cmd)

    convert = sub.add_parser(
        "convert", help="convert a trace between JSONL and columnar")
    convert.add_argument("dataset", choices=sorted(SCHEMAS),
                         help="record schema of the trace")
    convert.add_argument("src", help="input trace path")
    convert.add_argument("dst", help="output trace path")
    convert.add_argument("--row-group-rows", type=positive_int,
                         default=None,
                         help="columnar output (implied): rows per row "
                              f"group (default {DEFAULT_ROW_GROUP_ROWS})")
    convert.add_argument("--bucket-shards", type=positive_int,
                         default=None,
                         help="columnar output (implied): pre-bucket rows "
                              "by qname for out-of-core row-range replay "
                              "with --shards N")

    dataset_cmd = sub.add_parser(
        "dataset", help="inspect an on-disk dataset file")
    dataset_sub = dataset_cmd.add_subparsers(dest="dataset_action",
                                             required=True)
    dataset_info = dataset_sub.add_parser(
        "info", help="describe a trace file (columnar: header only)")
    dataset_info.add_argument("file", help="trace path (JSONL or columnar)")

    chaos = sub.add_parser(
        "chaos", help="scan campaign under fault injection (repro.faults)")
    chaos.add_argument("--preset", default="lossy", choices=preset_names(),
                       help="named fault plan to install on the network")
    chaos.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan's random streams "
                            "(independent of --seed, which builds the "
                            "universe)")
    chaos.add_argument("--ingress", type=int, default=120,
                       help="open ingress resolvers to probe")
    add_engine_flags(chaos)

    all_cmd = sub.add_parser("all", help="run every command")
    all_cmd.add_argument("--ingress", type=int, default=200)
    all_cmd.add_argument("--scale", type=float, default=0.005)
    all_cmd.add_argument("--allnames-scale", type=float, default=0.2)
    all_cmd.add_argument("--hours", type=float, default=0.5)
    all_cmd.add_argument("--probes", type=int, default=100)
    add_engine_flags(all_cmd)
    return parser


def _dispatch(args: argparse.Namespace, reporter: _Reporter) -> None:
    """Run the selected command (or, for ``all``, every analysis).

    Engine commands run against one :class:`WorkerPool` for their whole
    duration: the worker processes spawn once (on the first pooled
    dispatch, so never at ``--workers 1``) and serve every sharded call
    the command makes — for ``all``, that is every sub-command.
    """
    with WorkerPool(getattr(args, "workers", 1)):
        if args.command == "all":
            for name, command in _ANALYSIS_COMMANDS.items():
                reporter.note(f"### {name}\n")
                command(args, reporter)
            return
        _COMMANDS[args.command](args, reporter)


def _layer_table(tracer: Tracer, wall: float, command: str) -> str:
    """The ledger as ``--report`` prints it: calls, self seconds and share
    of the command's wall per span name, largest first, and the root
    ``command`` span's own time as ``unattributed``.  A pooled shard's
    seconds are a worker's, so above one worker the shares can sum past
    100%."""
    ledger = tracer.ledger()
    _, unattributed = ledger.pop("command")
    rows = [(name, int(calls), f"{seconds:.3f}", f"{seconds / wall:.1%}")
            for name, (calls, seconds) in sorted(
                ledger.items(), key=lambda item: (-item[1][1], item[0]))]
    rows.append(("unattributed", 1, f"{unattributed:.3f}",
                 f"{unattributed / wall:.1%}"))
    return format_table(("layer", "calls", "self s", "share of wall"), rows,
                        title=f"[layers] repro-ecs {command}: "
                              f"{wall:.3f} s wall")


def _export_artefacts(args: argparse.Namespace, reporter: _Reporter,
                      session: ObsSession,
                      sink: Optional[obs_live.LiveSink]) -> None:
    """Write the timeline, metrics and span files collected so far."""
    if args.timeline_out is not None and sink is not None:
        beats, dropped = sink.timeline()
        write_chrome_trace(beats, args.timeline_out, dropped=dropped)
        reporter.note(f"wrote {len(beats)} timeline events "
                      f"to {args.timeline_out}")
    if args.metrics_out is not None:
        if session.tracer is not None:
            session.tracer.publish(session.registry)
        write_prometheus(session.registry, args.metrics_out)
        reporter.note(f"wrote metrics to {args.metrics_out}")
    if args.trace_out is not None:
        write_spans_jsonl(session.tracer.spans, args.trace_out,
                          dropped=session.tracer.dropped)
        reporter.note(f"wrote {len(session.tracer.spans)} spans "
                      f"to {args.trace_out}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Observability flags wrap the whole command (for ``all``, every
    sub-command): the collectors and the live plane's
    :class:`~repro.obs.live.LiveSink` are installed before it dispatches
    — so worker pools pick up the heartbeat side channel at spawn — and
    the artefacts are written when it ends, also when it ends in an
    exception, which then propagates unchanged, but for a rejected input
    trace: that ends the command with one line, ``repro-ecs: PATH:
    REASON``.  All of it is out-of-band: reports are byte-identical at
    any worker count with the flags on or off.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    reporter = _Reporter(args.out, quiet=args.quiet,
                         show_report=args.report)
    serve = args.serve_metrics is not None
    progress = _LiveProgress() if args.live else None
    # --report alone traces into the ledger only (span limit 0).
    with observe(metrics=args.metrics_out is not None or serve,
                 tracing=args.trace_out is not None or args.report,
                 span_limit=0 if args.trace_out is None
                 else DEFAULT_SPAN_LIMIT) as session:
        # Made inside observe(), the sink serves the session's registry.
        sink: Optional[obs_live.LiveSink] = None
        server = None
        if serve or args.timeline_out is not None or args.live:
            sink = obs_live.LiveSink(on_beat=progress)
            previous_emitter = obs_live.swap(sink.emitter())
            if serve:
                from .obs.server import TelemetryServer
                server = TelemetryServer(sink, port=args.serve_metrics)
                port = server.start()
                reporter.note(f"serving live telemetry on "
                              f"http://127.0.0.1:{port} "
                              f"(/metrics, /healthz, /run)")
        try:
            if args.report:
                with session.tracer.span("command",
                                         command=args.command) as root:
                    _dispatch(args, reporter)
                reporter.note(_layer_table(session.tracer, root.duration,
                                           args.command))
            else:
                _dispatch(args, reporter)
        except TraceFormatError as exc:
            # Its path is the one given (trace_input), its str that path
            # and the reason (with a JSONL line's number).
            raise SystemExit(f"repro-ecs: {exc}") from None
        finally:
            failed = sys.exc_info()[0] is not None
            if sink is not None:
                obs_live.swap(previous_emitter)
                if server is not None:
                    server.stop()
                sink.close()
            if progress is not None:
                progress.finish()
            try:
                _export_artefacts(args, reporter, session, sink)
            except Exception as exc:
                if not failed:
                    raise  # else the command's own exception wins
                print(f"repro-ecs: export failed: {exc!r}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
