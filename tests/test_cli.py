"""Tests for the command-line interface."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli as cli_module
from repro.cli import _Reporter, build_parser, main
from repro.engine import DEFAULT_SHARDS, ShardSpec
from repro.datasets.columnar import (RowGroupReader, convert_columnar,
                                     file_info)
from repro.obs.export import parse_prometheus, write_text_atomic

from builder_reference import merged_records
from jsonl_reference import read_columnar


def _report_digests(out_dir: Path) -> dict:
    """SHA-256 of every report a command wrote under ``out_dir``."""
    return {str(path.relative_to(out_dir)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*.txt"))}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_default(self):
        args = build_parser().parse_args(["scan"])
        assert args.seed == 0 and args.command == "scan"

    def test_all_command_has_every_knob(self):
        args = build_parser().parse_args(["all"])
        for attr in ("ingress", "scale", "allnames_scale", "hours", "probes",
                     "workers", "shards"):
            assert hasattr(args, attr)

    @pytest.mark.parametrize("argv", [
        ["generate", "allnames", "t.jsonl"],
        ["replay", "allnames", "t.jsonl"],
        ["blowup"],
        ["all"],
    ])
    def test_engine_flags_on_sharded_commands(self, argv):
        args = build_parser().parse_args(argv + ["--workers", "4",
                                                 "--shards", "6"])
        assert args.workers == 4 and args.shards == 6
        defaults = build_parser().parse_args(argv)
        assert defaults.workers == 1 and defaults.shards >= 1

    def test_removed_chunk_size_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "allnames", "x", "--chunk-size", "2"])
        assert excinfo.value.code == 2
        assert "--chunk-size" in capsys.readouterr().err

    def test_quiet_flag(self):
        args = build_parser().parse_args(["--quiet", "scan"])
        assert args.quiet is True
        assert build_parser().parse_args(["scan"]).quiet is False


class TestReporter:
    def test_emit_creates_parent_directories_per_file(self, tmp_path):
        reporter = _Reporter(str(tmp_path / "deep" / "out"), quiet=True)
        reporter.emit("nested/section7/fig1", "hello")
        target = tmp_path / "deep" / "out" / "nested" / "section7" / "fig1.txt"
        assert target.read_text() == "hello\n"

    def test_quiet_suppresses_stdout_but_writes_files(self, tmp_path,
                                                      capsys):
        reporter = _Reporter(str(tmp_path), quiet=True)
        reporter.emit("report", "body")
        reporter.note("progress line")
        assert capsys.readouterr().out == ""
        assert (tmp_path / "report.txt").read_text() == "body\n"

    def test_loud_reporter_prints(self, capsys):
        reporter = _Reporter(None)
        reporter.emit("report", "body")
        reporter.note("progress")
        out = capsys.readouterr().out
        assert "body" in out and "progress" in out


class TestCommands:
    def test_census_prints_reports(self, tmp_path, capsys):
        rc = main(["--seed", "2", "--out", str(tmp_path), "census",
                   "--scale", "0.004", "--hours", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "probing strategies" in out
        assert "Table 1" in out
        assert "root-server ECS violations" in out
        assert _report_digests(tmp_path) == {
            "probing.txt": "46a9fa36b0e0ba13f7c5b5b020072bf1"
                           "43abe238fa9b01483cc9e691ad85e388",
            "root_violations.txt": "47ce56b0ea915c8266a75db9a2398a62"
                                   "7b899a0f1f9835e19b15e6414fac4fdc",
            "table1_cdn.txt": "033ac6f8ff4da5298f5f8a11cc698455"
                              "a11c2da8317fec0689d3e629db741e2b",
        }

    def test_caching_command(self, tmp_path, capsys):
        rc = main(["--seed", "2", "--out", str(tmp_path), "caching",
                   "--ingress", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "caching behavior classes" in out
        assert _report_digests(tmp_path) == {
            "caching_behavior.txt": "619b4665e18b99831a5aae23476d34a2"
                                    "2f03fafa9c5eadb14461ae4b811b6761",
            "network_caching.txt": "cfd15ab349f9f23966ebcd7d8abfb4a0"
                                   "b0dfd067056813799ab33399cf627638",
        }

    def test_scan_command_writes_reports(self, tmp_path, capsys):
        rc = main(["--seed", "2", "--out", str(tmp_path), "scan",
                   "--ingress", "40"])
        assert rc == 0
        assert "Scan dataset" in capsys.readouterr().out
        assert _report_digests(tmp_path) == {
            "discovery.txt": "9040fa4d56fcd87f50646618470316fa"
                             "6f14281ba9a6161ec9bef078463904d6",
            "hidden.txt": "cc849b096a5fd263efd37bb7fa3c3615"
                          "e3cd83b12722774dcb18cdaabc62674f",
            "network_scan.txt": "88206f45c7d3afe7156f0f46cad79bac"
                                "b30bfcd509c07d55599fbd4a63e1bef9",
            "scan_summary.txt": "cd367efe07f5020599c1483a1b784bd7"
                                "fa1911373b23b667d214cee7b78d7160",
            "table1_scan.txt": "213e7b27b54566e6bd4fe278dc2188be"
                               "ee74be0f90d03f0d108e8c8198d92afb",
        }

    def test_scan_discovery_sample_follows_seed(self, tmp_path,
                                                monkeypatch):
        """``--seed`` reaches the passive sample: the two seeds the CLI
        derives draw two samples from one universe.  The scan finds every
        ECS egress of a small universe, and the sample keeps every one it
        found, so the draw shows over a scan that found none."""
        real = cli_module.analyze_discovery
        calls = []

        def spy(universe, result, seed):
            calls.append((universe, result, seed))
            return real(universe, result, seed)

        monkeypatch.setattr(cli_module, "analyze_discovery", spy)
        for seed in ("2", "3"):
            assert main(["--quiet", "--seed", seed, "--out",
                         str(tmp_path / seed), "scan", "--ingress",
                         "40"]) == 0
        (universe, result, first), (_, _, second) = calls
        assert first != second
        unseen = dataclasses.replace(result, ecs_egress=set())
        assert real(universe, unseen, first).passive_found \
            != real(universe, unseen, second).passive_found

    def test_pitfalls_command(self, tmp_path, capsys):
        rc = main(["--seed", "2", "--out", str(tmp_path), "pitfalls",
                   "--probes", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 2" in out
        assert "FIG6" in out and "FIG7" in out
        assert "penalty" in out
        assert _report_digests(tmp_path) == {
            "fig6.txt": "36efe31a8a565b61eb7c2f2de27904e6"
                        "52a3e6fc143a957917445a43813d6855",
            "fig7.txt": "7464b203e0b85f8eed68b10464dd5f41"
                        "c0059bd4cddfeb29aa6195b852236407",
            "fig8.txt": "ca19781ba80ef04c4439cadee2cc901a"
                        "e8e4a45c397e7045e34d4231b4b03ad2",
            "table2.txt": "c1689450e1b8ed1c92b77d3f4e403902"
                          "6b7eb0647b049bed5779aa311f9bebaf",
        }

    def test_pitfalls_mapping_jitter_follows_seed(self, tmp_path,
                                                  monkeypatch):
        """``--seed`` reaches the Figure 6/7 handshake jitter, and each
        figure draws its own stream."""
        real = cli_module.measure_mapping_quality
        seeds = []

        def spy(lab, cdn, qname, *, seed):
            seeds.append(seed)
            return real(lab, cdn, qname, prefix_lengths=(24,), seed=seed)

        monkeypatch.setattr(cli_module, "measure_mapping_quality", spy)
        for seed in ("3", "4"):
            assert main(["--quiet", "--seed", seed, "--out",
                         str(tmp_path / seed), "pitfalls", "--probes",
                         "5"]) == 0
        fig6_at_3, fig7_at_3, fig6_at_4, fig7_at_4 = seeds
        assert fig6_at_3 != fig6_at_4
        assert fig6_at_3 != fig7_at_3 and fig6_at_4 != fig7_at_4

    def test_blowup_command(self, capsys):
        rc = main(["--seed", "2", "blowup", "--scale", "0.002",
                   "--allnames-scale", "0.05", "--hours", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 1" in out and "Figure 3" in out

    @pytest.mark.parametrize("seed", (0, 7))
    def test_blowup_reports_equal_record_lane_golden(self, seed, tmp_path,
                                                     monkeypatch):
        """``tests/data/blowup_seed*`` are the section 7 reports: Figure 1
        as the record-list implementation (PR 20) wrote it, Figures 2
        and 3 as re-recorded once the sweep drew three client samples
        per fraction from ``--seed``; the column lane reproduces them
        bytewise at any ``--workers``, with workers-invariant metrics and
        no scratch trace left behind."""
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        golden = Path(__file__).parent / "data" / f"blowup_seed{seed}"
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            rc = main(["--quiet", "--seed", str(seed), "--out", str(out),
                       "--metrics-out", str(tmp_path / f"w{workers}.prom"),
                       "blowup", "--scale", "0.002", "--allnames-scale",
                       "0.05", "--hours", "0.1", "--workers", str(workers)])
            assert rc == 0
            for fig in ("fig1", "fig2", "fig3"):
                assert (out / f"{fig}.txt").read_bytes() == \
                    (golden / f"{fig}.txt").read_bytes(), (fig, workers)
        assert not list(tmp_path.glob("repro-blowup-*"))
        prom = (tmp_path / "w1.prom").read_text()
        assert prom == (tmp_path / "w4.prom").read_text()
        # Generation is counted once per shard, inside the Figure 1 task.
        spec = ShardSpec.create("public-cdn", shard_count=DEFAULT_SHARDS,
                                scale=0.002, seed=seed, duration_s=360.0)
        generated = {labels["builder"]: value for _, labels, value
                     in parse_prometheus(prom)[
                         "repro_generate_records_total"]["samples"]}
        assert generated["PublicCdnBuilder"] == len(merged_records(spec))

    def test_blowup_scratch_trace_removed_on_error(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))

        def broken_sweep(trace, *args, **kwargs):
            assert Path(trace).parent.parent == tmp_path and \
                Path(trace).exists()
            raise RuntimeError("sweep failed")

        monkeypatch.setattr("repro.cli.client_sweep_sharded", broken_sweep)
        with pytest.raises(RuntimeError, match="sweep failed"):
            main(["--quiet", "blowup", "--scale", "0.002",
                  "--allnames-scale", "0.02", "--hours", "0.05"])
        assert not list(tmp_path.glob("repro-blowup-*"))

    def test_blowup_sweep_seeds_follow_seed(self, tmp_path, monkeypatch):
        """``--seed`` draws the Figure 2/3 sweep's three client samples
        per fraction, each from a seed of its own."""
        drawn = []

        def spy(trace, clients, *, fractions, seeds, workers):
            drawn.append(list(seeds))
            raise RuntimeError("sweep seen")

        monkeypatch.setattr("repro.cli.client_sweep_sharded", spy)
        for seed in ("3", "4"):
            with pytest.raises(RuntimeError, match="sweep seen"):
                main(["--quiet", "--seed", seed, "--out",
                      str(tmp_path / seed), "blowup", "--scale", "0.002",
                      "--allnames-scale", "0.02", "--hours", "0.05"])
        at_3, at_4 = drawn
        assert len(set(at_3)) == len(set(at_4)) == 3
        assert not set(at_3) & set(at_4)

    def test_generate_then_replay_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main(["--seed", "2", "generate", "allnames", str(trace),
                   "--scale", "0.01"])
        assert rc == 0 and trace.exists()
        rc = main(["replay", "allnames", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "blow-up factor" in out

    def test_generate_public_cdn(self, tmp_path, capsys):
        trace = tmp_path / "pc.jsonl"
        rc = main(["--seed", "2", "generate", "public-cdn", str(trace),
                   "--scale", "0.002", "--hours", "0.05"])
        assert rc == 0
        rc = main(["replay", "public-cdn", str(trace)])
        assert rc == 0
        assert "records replayed" in capsys.readouterr().out

    def test_generate_cdn_dataset(self, tmp_path):
        trace = tmp_path / "cdn.jsonl"
        rc = main(["--seed", "2", "generate", "cdn", str(trace),
                   "--scale", "0.002", "--hours", "0.2"])
        assert rc == 0 and trace.stat().st_size > 0

    def test_generate_cleans_up_shard_files(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(["--seed", "2", "--quiet", "generate", "allnames",
                   str(trace), "--scale", "0.01", "--workers", "2"])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_generate_creates_parent_directories(self, tmp_path):
        trace = tmp_path / "sub" / "dir" / "trace.jsonl"
        rc = main(["--seed", "2", "--quiet", "generate", "allnames",
                   str(trace), "--scale", "0.01"])
        assert rc == 0 and trace.stat().st_size > 0

    def test_quiet_replay_writes_report_silently(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["--seed", "2", "--quiet", "generate", "allnames", str(trace),
              "--scale", "0.01"])
        out_dir = tmp_path / "reports"
        rc = main(["--quiet", "--out", str(out_dir), "replay", "allnames",
                   str(trace), "--workers", "2"])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert "blow-up factor" in (out_dir / "replay.txt").read_text()


class TestArtefactsOnFailure:
    """A failed or interrupted run leaves each artefact absent or complete,
    and a failing command raises what it raised before the flags existed."""

    @pytest.fixture()
    def damaged(self, tmp_path):
        path = tmp_path / "damaged.col"
        path.write_bytes(b"RPRCOL02garbage")
        return path

    def test_failing_command_still_exports(self, tmp_path, damaged):
        prom, spans, timeline = (tmp_path / name for name in (
            "m.prom", "t.jsonl", "tl.json"))
        with pytest.raises(SystemExit,
                           match=f"^repro-ecs: {re.escape(str(damaged))}: "
                                 f"truncated columnar file"):
            main(["--quiet", "--out", str(tmp_path / "reports"),
                  "--metrics-out", str(prom), "--trace-out", str(spans),
                  "--timeline-out", str(timeline),
                  "replay", "allnames", str(damaged)])
        assert parse_prometheus(prom.read_text()) == {}
        assert json.loads(spans.read_text().splitlines()[-1]) == {
            "event": "tracer_summary", "spans": 0, "dropped": 0}
        # The run's one beat: the rejected file, named with its reason.
        doc = json.loads(timeline.read_text())
        assert [(event["cat"], event["name"], event["args"]["path"])
                for event in doc["traceEvents"]] == [
            ("file_rejected", "replay:allnames", str(damaged))]
        assert "truncated" in doc["traceEvents"][0]["args"]["reason"]
        assert doc["otherData"] == {"events": 1, "dropped": 0}
        assert not list(tmp_path.rglob("*.tmp"))

    def test_export_failure_does_not_mask_the_command(self, damaged,
                                                      capsys):
        with pytest.raises(SystemExit,  # not the export's OSError
                           match="truncated columnar file"):
            main(["--quiet", "--metrics-out", str(damaged / "m.prom"),
                  "replay", "allnames", str(damaged)])
        assert "export failed" in capsys.readouterr().err

    def test_atomic_writer_is_all_or_nothing(self, tmp_path):
        def chunks():
            yield "partial\n"
            raise RuntimeError("midway")

        fresh, existing = tmp_path / "sub" / "new.txt", tmp_path / "old.txt"
        existing.write_text("complete\n")
        for path in (fresh, existing):
            with pytest.raises(RuntimeError, match="midway"):
                write_text_atomic(path, chunks())
        assert not fresh.exists() and existing.read_text() == "complete\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ("jsonl", "columnar", "convert"))
    def test_killed_writer_leaves_no_destination(self, command, tmp_path):
        """``generate`` (either format) and ``convert`` to JSONL killed
        by SIGKILL once a shard or ``.tmp`` file is on disk leave no
        destination, and a re-run into the same path — over the files
        the killed run left — writes the bytes of an undisturbed run and
        nothing else."""
        source = tmp_path / "source.col"

        def argv(dest):
            if command == "convert":
                return ["--quiet", "convert", "allnames", str(source),
                        str(dest)]
            return ["--quiet", "generate", "allnames", str(dest), "--format",
                    command, "--scale", "0.1", "--workers", "1"]

        if command == "convert":
            # Rendering is the whole run: a bigger trace keeps it going
            # for a while after its .tmp appears.
            assert main(["--quiet", "generate", "allnames", str(source),
                         "--format", "columnar", "--scale", "0.25"]) == 0

        name = "t.col" if command == "columnar" else "t.jsonl"
        reference = tmp_path / "reference" / name
        assert main(argv(reference)) == 0
        work = tmp_path / "work"
        work.mkdir()
        dest = work / name
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv(dest)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        deadline = time.monotonic() + 60
        try:
            while not any(work.iterdir()):
                assert proc.poll() is None, "finished before it was killed"
                assert time.monotonic() < deadline, "wrote nothing in 60 s"
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait()
        assert not dest.exists()
        assert list(work.iterdir())
        assert main(argv(dest)) == 0
        assert dest.read_bytes() == reference.read_bytes()
        assert [p.name for p in work.iterdir()] == [name]


#: Each file-reading command, given its input path.
_READERS = {
    "replay": lambda path, out: ["replay", "allnames", path],
    "convert": lambda path, out: ["convert", "allnames", path, out],
    "dataset info": lambda path, out: ["dataset", "info", path],
}


#: (command, case) cells that read the file fine: ``dataset info``
#: takes no dataset and no shard count, ``convert`` no shard count.
_ACCEPTED = {("dataset info", "wrong-schema"),
             ("dataset info", "wrong-buckets"),
             ("convert", "wrong-buckets")}


class TestUnopenableInput:
    """One rule for an input path that cannot be opened or read as a
    trace, or whose header contradicts the command: exit 1 with one
    stderr line naming the path and the reason, never a traceback.  An
    empty file opens, and is a zero-row trace."""

    @pytest.fixture()
    def inputs(self, tmp_path, monkeypatch):
        (tmp_path / "a-directory.col").mkdir()
        (tmp_path / "empty.col").write_bytes(b"")
        committed = Path(__file__).parent / "data" / "allnames_v1.jsonl"
        cut, code = tmp_path / "cut.col", tmp_path / "code.col"
        convert_columnar(committed, cut, "allnames")
        cut.write_bytes(cut.read_bytes()[:cut.stat().st_size // 2])
        # A header that checks out, and a qname dictionary cut to one
        # entry: only a group read sees the codes past its end.
        convert_columnar(committed, code, "allnames")
        with RowGroupReader(code) as reader:
            offset, length = reader.group_entry(0)["columns"][2]["dict"]
        raw = bytearray(code.read_bytes())
        raw[16 + offset:16 + offset + length] = b'["a."]'.ljust(length)
        code.write_bytes(bytes(raw))
        # A cdn trace, and an allnames trace bucketed for 4 shards where
        # replay's default is 8.
        convert_columnar(Path(__file__).parent / "data" / "cdn_v1.jsonl",
                         tmp_path / "cdn.col", "cdn")
        convert_columnar(committed, tmp_path / "four.col", "allnames",
                         buckets=4)
        (tmp_path / "latin1.jsonl").write_bytes(
            b'{"ts":1.0,"qname":"caf\xe9.example."}\n')
        # The malformed files go by a relative path, which the readers
        # normalise (and a replay resolves): the message keeps it as given.
        monkeypatch.chdir(tmp_path)
        return {"missing": (tmp_path / "missing.col", "No such file"),
                "directory": (tmp_path / "a-directory.col", "Is a directory"),
                "empty": (tmp_path / "empty.col", None),
                "malformed-col": ("./cut.col", "past the end"),
                "malformed-jsonl": ("./latin1.jsonl",
                                    "line 1: not UTF-8 at byte 23"),
                "wrong-schema": ("./cdn.col", "holds cdn rows, not allnames"),
                "wrong-buckets": ("./four.col", "pre-bucketed for 4 shards; "
                                  "replay it with --shards 4")}

    @pytest.mark.parametrize("case", ("missing", "directory", "empty",
                                      "malformed-col", "malformed-jsonl",
                                      "wrong-schema", "wrong-buckets"))
    @pytest.mark.parametrize("command", sorted(_READERS))
    def test_matrix(self, command, case, inputs, tmp_path, capsys):
        path, reason = inputs[case]
        out = tmp_path / "out.jsonl"
        argv = ["--quiet", *_READERS[command](str(path), str(out))]
        if reason is None or (command, case) in _ACCEPTED:
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
            return
        with pytest.raises(SystemExit) as caught:
            main(argv)
        message = caught.value.code
        assert isinstance(message, str)  # the interpreter prints it, exit 1
        assert message.startswith(f"repro-ecs: {path}: ")
        assert Path(path).name not in message.split(": ", 2)[2]  # once
        assert reason in message and "\n" not in message
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_worker_reason_reaches_the_exit_line(self, inputs):
        """A damage only a group read sees, met in a pool worker (which
        reads the file by its resolved path): the exit line names the
        path as given and carries the worker's reason whole."""
        with pytest.raises(SystemExit) as caught:
            main(["--quiet", "replay", "allnames", "./code.col",
                  "--workers", "2"])
        assert re.fullmatch(r"repro-ecs: \./code\.col: group 0: qname row "
                            r"\d+ holds dictionary code \d+, past its "
                            r"1-entry dictionary", caught.value.code)

    def test_empty_file_replays_zero_rows(self, inputs, tmp_path):
        assert main(["--quiet", "--out", str(tmp_path / "r"), "replay",
                     "allnames", str(inputs["empty"][0])]) == 0
        assert "records replayed        0" in \
            (tmp_path / "r" / "replay.txt").read_text()

    def test_rejection_is_a_timeline_event_and_one_line(self, inputs,
                                                        tmp_path):
        path = inputs["missing"][0]
        timeline = tmp_path / "tl.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--quiet", "--timeline-out",
             str(timeline), "replay", "allnames", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"repro-ecs: {path}: No such file or directory"]
        events = json.loads(timeline.read_text())["traceEvents"]
        # The beat's reason is the error's text, as for a malformed file.
        assert [(e["cat"], e["name"], e["args"]) for e in events] == [
            ("file_rejected", "replay:allnames",
             {"path": str(path),
              "reason": f"{path}: No such file or directory"})]


class TestColumnarCommands:
    def _generate(self, tmp_path, fmt=None):
        trace = tmp_path / ("trace.col" if fmt == "columnar"
                            else "trace.jsonl")
        argv = ["--seed", "2", "--quiet", "generate", "allnames",
                str(trace), "--scale", "0.01"]
        if fmt:
            argv += ["--format", fmt]
        assert main(argv) == 0
        return trace

    def test_convert_roundtrip_is_byte_identical(self, tmp_path, capsys):
        jsonl = self._generate(tmp_path)
        col = tmp_path / "trace.col"
        rc = main(["convert", "allnames", str(jsonl), str(col)])
        assert rc == 0
        assert "columnar" in capsys.readouterr().out
        back = tmp_path / "back.jsonl"
        # A columnar source with no group option converts back.
        assert main(["--quiet", "convert", "allnames", str(col),
                     str(back)]) == 0
        assert back.read_bytes() == jsonl.read_bytes()

    def test_generate_format_columnar_matches_convert(self, tmp_path):
        """Two producers of one trace: the same rows, and — `generate`
        and `convert` may cut groups at different rows — the same bytes
        once both are rewritten with one ``--row-group-rows``."""
        jsonl = self._generate(tmp_path)
        direct = self._generate(tmp_path, fmt="columnar")
        converted = tmp_path / "converted.col"
        assert main(["--quiet", "convert", "allnames", str(jsonl),
                     str(converted)]) == 0
        assert read_columnar(direct) == read_columnar(converted)
        normalised = []
        for src in (direct, converted):
            dst = src.with_suffix(".norm")
            assert main(["--quiet", "convert", "allnames", str(src),
                         str(dst), "--row-group-rows", "1000"]) == 0
            normalised.append(dst.read_bytes())
        assert normalised[0] == normalised[1]

    def test_legacy_v1_file_through_every_command(self, tmp_path):
        """A file in the retired single-block layout fails ``dataset
        info``, ``convert`` (to JSONL, to columnar, pre-bucketed) and
        ``replay``, naming the file, the layout and the command that
        re-creates it, and nothing is written."""
        v1 = tmp_path / "v1.col"
        v1.write_bytes(b"RPRCOL01" + bytes(64))
        out = str(tmp_path / "out")
        for argv in (["dataset", "info", str(v1)],
                     ["convert", "allnames", str(v1), out],
                     ["convert", "allnames", str(v1), out,
                      "--row-group-rows", "64"],
                     ["convert", "allnames", str(v1), out,
                      "--bucket-shards", "4"],
                     ["replay", "allnames", str(v1), "--workers", "2"]):
            with pytest.raises(SystemExit,
                               match=f"^repro-ecs: {re.escape(str(v1))}: "
                                     f"RPRCOL01, the retired single-block"
                               ) as caught:
                main(["--quiet", *argv])
            assert "repro-ecs generate" in caught.value.code
        assert [p.name for p in tmp_path.iterdir()] == ["v1.col"]

    def test_failed_prebucket_leaves_dst_as_it_was(self, tmp_path):
        """``convert --bucket-shards`` from JSONL buckets the lines into
        spill files beside ``dst``, not over it: when that fails — a
        directory where the first spill file goes, or a line that is not
        a row after groups were spilled — ``dst`` keeps its bytes and no
        spill file is left."""
        committed = Path(__file__).parent / "data" / "allnames_v1.jsonl"
        for damage in ("spill-blocked", "rejected-line"):
            root = tmp_path / damage
            root.mkdir()
            jsonl, dst = root / "trace.jsonl", root / "trace.col"
            jsonl.write_bytes(committed.read_bytes() + b'{"ts":9e9}\n'
                              * (damage == "rejected-line"))
            dst.write_bytes(b"what dst held")
            argv = ["--quiet", "convert", "allnames", str(jsonl), str(dst),
                    "--bucket-shards", "4", "--row-group-rows", "16"]
            if damage == "spill-blocked":
                (root / "trace.col.bucket00.tmp").mkdir()
                with pytest.raises(IsADirectoryError):
                    main(argv)
            else:
                with pytest.raises(SystemExit, match=f"^repro-ecs: "
                                   f"{re.escape(str(jsonl))}: line 301: "
                                   f"missing field 'client_ip'$"):
                    main(argv)
            assert dst.read_bytes() == b"what dst held"
            assert sorted(p.name for p in root.iterdir()) == sorted(
                ["trace.col", "trace.jsonl"]
                + ["trace.col.bucket00.tmp"] * (damage == "spill-blocked"))

    @pytest.mark.parametrize("group_rows", ("16", "64"))
    def test_bucketing_jsonl_equals_bucketing_its_col(self, group_rows,
                                                      tmp_path):
        """``convert --bucket-shards`` buckets a JSONL source directly,
        to the bytes of bucketing its ``.col`` conversion."""
        jsonl = Path(__file__).parent / "data" / "allnames_v1.jsonl"
        flat, direct, staged = (tmp_path / name for name in
                                ("flat.col", "direct.col", "staged.col"))
        bucket = ["--bucket-shards", "4", "--row-group-rows", group_rows]
        for argv in ([jsonl, direct, *bucket],
                     [jsonl, flat, "--row-group-rows", group_rows],
                     [flat, staged, *bucket]):
            assert main(["--quiet", "convert", "allnames",
                         *map(str, argv)]) == 0
        assert file_info(direct)["buckets"] == 4
        assert direct.read_bytes() == staged.read_bytes()

    @staticmethod
    def _replay_table(trace, workers, traced, out):
        """What ``replay`` prints below the title line (which embeds the
        file name)."""
        spans = ["--trace-out", str(out / "spans.jsonl")] if traced else []
        assert main(["--quiet", *spans, "--out", str(out), "replay",
                     "allnames", str(trace), "--workers", workers]) == 0
        return (out / "replay.txt").read_text().splitlines()[2:]

    @pytest.fixture(scope="class")
    def one_trace(self, tmp_path_factory):
        """The committed allnames trace as JSONL, the three columnar
        shapes ``convert`` makes of it — one row group ("v1", the shape
        of the retired layout it was first kept in), 64-row groups and
        pre-bucketed — and the table ``replay`` prints for the one-group
        file at one worker, untraced."""
        root = tmp_path_factory.mktemp("one-trace")
        jsonl = Path(__file__).parent / "data" / "allnames_v1.jsonl"
        shapes = {"jsonl": jsonl, "v1": root / "one.col",
                  "v2": root / "rg.col", "bucketed": root / "bucketed.col"}
        for shape, extra in (
                ("v1", []),
                ("v2", ["--row-group-rows", "64"]),
                ("bucketed", ["--bucket-shards", "8",
                              "--row-group-rows", "64"])):
            assert main(["--quiet", "convert", "allnames", str(jsonl),
                         str(shapes[shape]), *extra]) == 0
        assert file_info(shapes["v1"])["row_groups"] == 1
        want = self._replay_table(shapes["v1"], "1", False, root / "want")
        assert "blow-up factor" in "\n".join(want)
        return shapes, want

    @pytest.mark.parametrize("traced", (False, True),
                             ids=("untraced", "traced"))
    @pytest.mark.parametrize("workers", ("1", "2"))
    @pytest.mark.parametrize("shape", ("jsonl", "v1", "v2", "bucketed"))
    def test_one_replay_table_across_shape_workers_and_tracing(
            self, one_trace, shape, workers, traced, tmp_path):
        """Every input shape ends in the one replay kernel, traced or
        not: all sixteen print one table."""
        shapes, want = one_trace
        assert self._replay_table(shapes[shape], workers, traced,
                                  tmp_path) == want
        if traced:
            assert (tmp_path / "spans.jsonl").stat().st_size > 0

    def test_dataset_info_reports_layout(self, tmp_path, capsys):
        col = self._generate(tmp_path, fmt="columnar")
        rc = main(["dataset", "info", str(col)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "allnames" in out
        assert "bytes/row" in out
        assert "qname" in out

    def test_dataset_info_on_jsonl(self, tmp_path, capsys):
        jsonl = self._generate(tmp_path)
        rc = main(["dataset", "info", str(jsonl)])
        out = capsys.readouterr().out
        assert rc == 0 and "jsonl" in out

    def test_replay_autodetects_columnar(self, tmp_path):
        jsonl = self._generate(tmp_path)
        col = self._generate(tmp_path, fmt="columnar")
        out_j = tmp_path / "rj"
        out_c = tmp_path / "rc"
        assert main(["--quiet", "--out", str(out_j), "replay", "allnames",
                     str(jsonl)]) == 0
        assert main(["--quiet", "--out", str(out_c), "replay", "allnames",
                     str(col), "--workers", "2"]) == 0
        report_j = (out_j / "replay.txt").read_text().splitlines()
        report_c = (out_c / "replay.txt").read_text().splitlines()
        # Identical bodies; only the title line embeds the file name.
        assert report_j[2:] == report_c[2:]
        assert "blow-up factor" in "\n".join(report_c)

    def test_truncated_jsonl_names_file_and_line(self, tmp_path):
        """A trace cut mid-line (a killed ``generate``) fails ``replay``
        and ``convert`` with the file and the last line's number, and
        ``convert`` leaves no output, finished or temporary."""
        jsonl = self._generate(tmp_path)
        raw = jsonl.read_bytes()
        lines = raw.count(b"\n")
        jsonl.write_bytes(raw[:-40])
        col = tmp_path / "trace.col"
        for argv in (["replay", "allnames", str(jsonl), "--workers", "2"],
                     ["convert", "allnames", str(jsonl), str(col)]):
            with pytest.raises(SystemExit) as caught:
                main(["--quiet", *argv])
            assert caught.value.code.startswith(
                f"repro-ecs: {jsonl}: line {lines}: truncated final line")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
