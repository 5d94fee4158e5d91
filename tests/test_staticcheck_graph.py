"""Whole-program linter tests: RS201/RS203/RS204, suppressions, the driver.

Each test builds a small fixture package under ``tmp_path`` and runs
:func:`repro.staticcheck.graph.lint_paths` over it.  The fixtures
import the *real* engine introspection surface (``worker_entrypoint``,
``repro.obs``) by dotted name only — the analyzer never
imports fixture code, so nothing here executes.

pytest's ``tmp_path`` contains the test name (``.../test_rs201.../``)
which matches the default ``/test_`` test-path fragment and would relax
every rule; fixtures therefore always pass an explicit :class:`Config`
with ``test_paths=()``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.staticcheck import Violation, lint_source
from repro.staticcheck.__main__ import run as lint_cli_run
from repro.staticcheck.config import Config
from repro.staticcheck.core import all_rule_ids, graph_rules
from repro.staticcheck.graph import (ProjectIndex, index_source,
                                     iter_lintable_files, lint_paths,
                                     module_name_for, runtime_engine_facts)
from repro.staticcheck.reporters import render

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

GRAPH_IDS = ("RS201", "RS203", "RS204")


def _config(**kwargs: object) -> Config:
    kwargs.setdefault("test_paths", ())
    kwargs.setdefault("determinism_allow", ())
    return Config(**kwargs)  # type: ignore[arg-type]


def write_pkg(root: Path, files: Dict[str, str]) -> Path:
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return pkg


def run_graph(pkg: Path, config: Config) -> List[Violation]:
    return lint_paths([pkg], config)[0]


def rule_ids(violations: List[Violation]) -> Tuple[str, ...]:
    return tuple(v.rule_id for v in violations)


# ---------------------------------------------------------------------------
# RS201: worker-reachability determinism.


AMBIENT_WORKERS = """\
from repro.engine.pool import worker_entrypoint

from .helpers import stamp


@worker_entrypoint
def shard_entry(index: int) -> float:
    return middle(index)


def middle(index: int) -> float:
    return inner()


def inner() -> float:
    return stamp()
"""

AMBIENT_HELPERS = """\
import time


def stamp() -> float:
    return time.time()
"""


class TestRS201Ambient:
    def test_clock_reachable_through_three_frames_fires(
            self, tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"workers.py": AMBIENT_WORKERS,
                                   "helpers.py": AMBIENT_HELPERS})
        # helpers.py carries a determinism-allow waiver, so per-file
        # RS001 is silent there — only the graph pass can see that the
        # clock read runs inside a worker.
        config = _config(determinism_allow=("pkg/helpers.py",))
        result = run_graph(pkg, config)
        assert rule_ids(result) == ("RS201",)
        violation = result[0]
        assert violation.path.endswith("helpers.py")
        assert "time.time" in violation.message
        # The chain names every frame back to the entrypoint.
        for frame in ("stamp", "inner", "middle", "shard_entry"):
            assert frame in violation.message

    def test_unreachable_clock_does_not_fire(self, tmp_path: Path) -> None:
        # Same helper, but no worker entrypoint ever reaches it.
        workers = AMBIENT_WORKERS.replace("return inner()", "return 0.0")
        pkg = write_pkg(tmp_path, {"workers.py": workers,
                                   "helpers.py": AMBIENT_HELPERS})
        config = _config(determinism_allow=("pkg/helpers.py",))
        result = run_graph(pkg, config)
        assert rule_ids(result) == ()

    def test_waived_file_outside_worker_context_stays_quiet(
            self, tmp_path: Path) -> None:
        # A waived clock read with no entrypoints at all: per-file RS001
        # is waived and RS201 has nothing reachable.
        pkg = write_pkg(tmp_path, {"helpers.py": AMBIENT_HELPERS})
        config = _config(determinism_allow=("pkg/helpers.py",))
        result = run_graph(pkg, config)
        assert rule_ids(result) == ()


SEED_WORKERS = """\
from repro.engine.pool import worker_entrypoint

from .helpers import make_rng


@worker_entrypoint
def shard_entry(index: int) -> float:
    rng = make_rng(42)
    return rng.random()
"""

SEED_HELPERS = """\
import random


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)
"""


class TestRS201ConstantSeed:
    def test_constant_seed_through_helper_fires(self,
                                                tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"workers.py": SEED_WORKERS,
                                   "helpers.py": SEED_HELPERS})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ("RS201",)
        message = result[0].message
        assert "constant seed 42" in message
        assert "'seed'" in message and "make_rng" in message

    def test_threaded_seed_does_not_fire(self, tmp_path: Path) -> None:
        workers = SEED_WORKERS.replace("make_rng(42)", "make_rng(index)")
        pkg = write_pkg(tmp_path, {"workers.py": workers,
                                   "helpers.py": SEED_HELPERS})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ()


# ---------------------------------------------------------------------------
# RS203: cross-module merge algebra.


PARTIAL_DEF = """\
class Partial:
    def __init__(self) -> None:
        self.count = 0

    def merge_from(self, other: "Partial") -> None:
        self.count += other.count
"""

PARTIAL_BUILD = """\
from repro.engine.pool import worker_entrypoint

from .model import Partial


@worker_entrypoint
def build(index: int) -> Partial:
    return Partial()
"""

PARTIAL_JOIN = """\
from .model import Partial


def join(parts: list) -> Partial:
    total = Partial()
    for part in parts:
        total.merge_from(part)
    return total
"""


class TestRS203MergeAlgebra:
    def test_never_merged_partial_fires(self, tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF,
                                   "build.py": PARTIAL_BUILD})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ("RS203",)
        message = result[0].message
        assert "Partial" in message and "merge_from" in message

    def test_merged_in_another_module_does_not_fire(
            self, tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF,
                                   "build.py": PARTIAL_BUILD,
                                   "join.py": PARTIAL_JOIN})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ()


# ---------------------------------------------------------------------------
# RS204: obs ACTIVE escape.


ESCAPE = """\
from repro.obs import metrics as _obs_metrics

SLOT = _obs_metrics.ACTIVE


def leak():
    return _obs_metrics.ACTIVE
"""

GUARDED = """\
from repro.obs import metrics as _obs_metrics


def tally(name: str) -> None:
    slot = _obs_metrics.ACTIVE
    if slot is not None:
        slot.incr(name)
"""


class TestRS204ObsEscape:
    def test_alias_and_return_fire(self, tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"escape.py": ESCAPE})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ("RS204", "RS204")
        messages = [v.message for v in result]
        assert any("module-level alias 'SLOT'" in m for m in messages)
        assert any("leak returns the raw obs ACTIVE" in m
                   for m in messages)

    def test_local_guarded_read_does_not_fire(self,
                                              tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"guarded.py": GUARDED})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ()


# ---------------------------------------------------------------------------
# Suppressions: one table per file, settled once for both kinds of finding.


class TestGraphSuppressions:
    def test_inline_suppression_silences_graph_finding(
            self, tmp_path: Path) -> None:
        helpers = AMBIENT_HELPERS.replace(
            "    return time.time()",
            "    return time.time()  # repro-lint: disable=RS201")
        pkg = write_pkg(tmp_path, {"workers.py": AMBIENT_WORKERS,
                                   "helpers.py": helpers})
        config = _config(determinism_allow=("pkg/helpers.py",))
        result = run_graph(pkg, config)
        assert rule_ids(result) == ()

    def test_unused_graph_suppression_is_rs000_under_graph(
            self, tmp_path: Path) -> None:
        source = "x = 1  # repro-lint: disable=RS201\n"
        pkg = write_pkg(tmp_path, {"clean.py": source})
        result = run_graph(pkg, _config())
        assert rule_ids(result) == ("RS000",)

    def test_unused_graph_suppression_silent_in_plain_lint(self) -> None:
        # One string is not a program: lint_source never executes the
        # graph rules, so holding a suppression for one is not "unused".
        out = lint_source("x = 1  # repro-lint: disable=RS201\n", "a.py",
                          config=_config())
        assert out == []


    def test_one_comment_covers_per_file_and_graph_finding(
            self, tmp_path: Path) -> None:
        # RS001 (the global stream) and RS201 (a constant seed reaching
        # random.Random through a helper) land on the same line; one
        # comment names both, and neither half is reported unused.
        line = "    return make_rng(42).random() + random.random()"
        workers = SEED_WORKERS.replace(
            "    rng = make_rng(42)\n    return rng.random()", line
        ).replace("from repro", "import random\n\nfrom repro")
        pkg = write_pkg(tmp_path, {"workers.py": workers,
                                   "helpers.py": SEED_HELPERS})
        found = run_graph(pkg, _config())
        assert sorted(rule_ids(found)) == ["RS001", "RS201"]
        assert len({(v.path, v.line) for v in found}) == 1
        (pkg / "workers.py").write_text(workers.replace(
            line, line + "  # repro-lint: disable=RS001,RS201"),
            encoding="utf-8")
        assert run_graph(pkg, _config()) == []


# ---------------------------------------------------------------------------
# The driver: one parse per file, order-independent reports.


def _full_fixture(tmp_path: Path) -> Tuple[Path, Config]:
    pkg = write_pkg(tmp_path, {
        "workers.py": AMBIENT_WORKERS,
        "helpers.py": AMBIENT_HELPERS,
        "model.py": PARTIAL_DEF,
        "build.py": PARTIAL_BUILD,
        "escape.py": ESCAPE,
    })
    return pkg, _config(determinism_allow=("pkg/helpers.py",))


class TestDriver:
    def test_each_file_is_parsed_exactly_once(
            self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
        pkg = write_pkg(tmp_path, {"workers.py": AMBIENT_WORKERS,
                                   "helpers.py": AMBIENT_HELPERS})
        parsed: List[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        violations, files = lint_paths(
            [pkg], _config(determinism_allow=("pkg/helpers.py",)))
        assert files == 3 and rule_ids(violations) == ("RS201",)
        assert sorted(parsed) == sorted(
            str(pkg / name)
            for name in ("__init__.py", "helpers.py", "workers.py"))

    def test_report_is_independent_of_path_argument_order(
            self, tmp_path: Path) -> None:
        pkg, config = _full_fixture(tmp_path)
        names = sorted(path.name for path in pkg.iterdir())
        forward = lint_paths([pkg / name for name in names], config)
        backward = lint_paths([pkg / name for name in reversed(names)],
                              config)
        assert sorted(rule_ids(forward[0])) == ["RS201", "RS203", "RS204",
                                                "RS204"]
        for fmt in ("text", "json"):
            assert render(*forward, fmt) == render(*backward, fmt)

    def test_removed_options_are_usage_errors(
            self, tmp_path: Path,
            capsys: pytest.CaptureFixture[str]) -> None:
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        for argv in (["--graph"], ["--workers", "2"], ["--changed"],
                     ["--format", "sarif"]):
            with pytest.raises(SystemExit) as excinfo:
                lint_cli_run([*argv, str(good)])
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_prom_only_run_has_an_empty_project(
            self, tmp_path: Path,
            capsys: pytest.CaptureFixture[str]) -> None:
        prom = tmp_path / "m.prom"
        prom.write_text("# HELP up Liveness.\n# TYPE up gauge\nup 1\n",
                        encoding="utf-8")
        assert lint_cli_run(["--prom", str(prom)]) == 0
        assert "clean: 0 violations in 1 file" in capsys.readouterr().out
        prom.write_text("up 1\n", encoding="utf-8")  # sample, no TYPE
        assert lint_cli_run(["--prom", str(prom)]) == 1
        assert "RS100" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Self-application: the repo's own sources must pass their own linter.


class TestSelfLint:
    def test_src_repro_is_graph_clean(self) -> None:
        # The full self-lint is tests/test_staticcheck.py's meta-test;
        # this pins that a clean RS2xx result there is not vacuous: the
        # engine's declarations resolve to real functions in the index
        # and reach well beyond themselves.
        project = ProjectIndex(
            [index_source(path.read_text(encoding="utf-8"), str(path))
             for path in iter_lintable_files([SRC], Config())],
            runtime_facts=runtime_engine_facts())
        assert len(project.worker_seeds()) > 10
        assert len(project.worker_reachable()[0]) \
            > 2 * len(project.worker_seeds())
        for rule in graph_rules():
            assert rule.check_project(project, Config()) == [], rule.id

    def test_rule_universe_includes_graph_family(self) -> None:
        assert set(GRAPH_IDS) <= set(all_rule_ids())


# ---------------------------------------------------------------------------
# Small unit seams.


class TestUnits:
    def test_module_name_walks_packages(self, tmp_path: Path) -> None:
        pkg = write_pkg(tmp_path, {"mod.py": "x = 1\n"})
        assert module_name_for(pkg / "mod.py") == "pkg.mod"
        assert module_name_for(pkg / "__init__.py") == "pkg"
