"""The invariant linter: every rule, suppressions, path roles, the
report, the driver, CLI wiring — and the meta-test that ``src/repro``
itself lints clean.

Fixture sources are linted under synthetic non-test paths (a ``tests``
component or a ``test_*.py`` name makes a file test code, which relaxes
RS001's hash()/clock checks and all of RS005).  Fixture packages are
written under pytest's ``tmp_path``; only components below the lint
root count, so its ``test_*0`` directory makes nothing test code.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import LintContext, lint_paths, render_text
from repro.staticcheck.__main__ import run as lint_cli_run
from repro.staticcheck.core import (SYNTAX_ID, UNUSED_ID, all_rule_ids,
                                    analyze_source, graph_rules,
                                    iter_lintable_files, role_parts,
                                    settle_file)
from repro.staticcheck.rules.merge import MERGE_METHODS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_PATH = "src/repro/example.py"
#: Every rule but RS007 and RS008, which need the callers in tests,
#: benchmarks and examples that a run over part of ``src/repro`` leaves
#: out (CI lints the whole tree with every rule).
WITHOUT_CALLER_RULES = [rule_id for rule_id in all_rule_ids()
                        if rule_id not in ("RS007", "RS008")]


def ids_of(violations):
    return [v.rule_id for v in violations]


def lint(source: str, path: str = SRC_PATH, rule_ids=None):
    """Lint one source string, ``path`` its name and lint root, with the
    per-file rules (``rule_ids`` restricts them).  One string is not a
    program: a suppression held for a graph rule is not "unused" here."""
    active = set(all_rule_ids() if rule_ids is None else rule_ids) \
        - {rule.id for rule in graph_rules()}
    parts = role_parts(Path(path), Path(path))
    return settle_file(analyze_source(source, path, parts, rule_ids),
                       active)


def write_pkg(root: Path, files: Dict[str, str]) -> Path:
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return pkg


def lint_pkg(pkg: Path) -> List[str]:
    return ids_of(lint_paths([pkg])[0])


# ---------------------------------------------------------------------------
# RS001 — determinism


class TestDeterminismRule:
    def test_module_level_random_call_flagged(self):
        src = "import random\nx = random.random()\n"
        violations = lint(src, rule_ids=["RS001"])
        assert ids_of(violations) == ["RS001"]
        assert violations[0].line == 2
        assert "process-global random stream" in violations[0].message

    def test_random_call_flagged_through_alias(self):
        src = "import random as rnd\n\ndef f():\n    return rnd.choice([1])\n"
        assert ids_of(lint(src, rule_ids=["RS001"])) == ["RS001"]

    def test_from_import_random_function_flagged(self):
        src = "from random import shuffle\nshuffle([])\n"
        assert ids_of(lint(src, rule_ids=["RS001"])) == ["RS001"]

    def test_random_function_passed_on_flagged_once(self):
        """A bound global-stream function handed to ``map`` draws as a
        call does; a call is still one finding, not two."""
        src = ("import random\nfrom itertools import repeat, starmap\n"
               "draw = random.random\n"
               "us = list(starmap(draw, repeat((), 3)))\n"
               "x = random.random()\n")
        violations = lint(src, rule_ids=["RS001"])
        assert [v.line for v in violations] == [3, 5]

    def test_seeded_random_instance_ok(self):
        src = ("import random\n\ndef f(seed):\n"
               "    rng = random.Random(seed)\n    return rng.random()\n")
        assert lint(src, rule_ids=["RS001"]) == []

    def test_wall_clock_flagged_outside_allowlist(self):
        src = "import time\nnow = time.time()\n"
        violations = lint(src, rule_ids=["RS001"])
        assert ids_of(violations) == ["RS001"]
        assert "wall-clock" in violations[0].message

    def test_wall_clock_allowed_only_in_obs(self):
        src = "import time\nnow = time.time()\n"
        assert lint(src, path="src/repro/obs/live.py",
                    rule_ids=["RS001"]) == []
        assert lint(src, path="src/repro/obs/metrics.py",
                    rule_ids=["RS001"]) == []
        assert ids_of(lint(src, path="src/repro/net/clock.py",
                           rule_ids=["RS001"])) == ["RS001"]

    def test_datetime_now_and_uuid4_flagged(self):
        src = ("import datetime\nimport uuid\n"
               "a = datetime.datetime.now()\nb = uuid.uuid4()\n")
        assert ids_of(lint(src, rule_ids=["RS001"])) == ["RS001", "RS001"]

    def test_builtin_hash_flagged_outside_tests(self):
        src = "key = hash(('a', 1))\n"
        violations = lint(src, rule_ids=["RS001"])
        assert ids_of(violations) == ["RS001"]
        assert "PYTHONHASHSEED" in violations[0].message

    def test_hash_ok_in_test_paths(self):
        src = "key = hash(('a', 1))\n"
        assert lint(src, path="tests/test_x.py", rule_ids=["RS001"]) == []

    def test_set_iteration_flagged_sorted_ok(self):
        bad = "for x in {1, 2, 3}:\n    print(x)\n"
        good = "for x in sorted({1, 2, 3}):\n    print(x)\n"
        assert ids_of(lint(bad, rule_ids=["RS001"])) == ["RS001"]
        assert lint(good, rule_ids=["RS001"]) == []

    def test_set_comprehension_iteration_flagged(self):
        src = "vals = [x for x in set([3, 1])]\n"
        assert ids_of(lint(src, rule_ids=["RS001"])) == ["RS001"]


# ---------------------------------------------------------------------------
# RS002 — merge-completeness


MERGEABLE_COMPLETE = """\
from dataclasses import dataclass

@dataclass
class Partial:
    hits: int
    misses: int

    def merge(self, other):
        return Partial(hits=self.hits + other.hits,
                       misses=self.misses + other.misses)
"""

MERGEABLE_MISSING = """\
from dataclasses import dataclass

@dataclass
class Partial:
    hits: int
    misses: int
    peak: int

    def merge(self, other):
        return Partial(hits=self.hits + other.hits,
                       misses=self.misses + other.misses, peak=0)
"""


class TestMergeCompletenessRule:
    def test_complete_merge_clean(self):
        assert lint(MERGEABLE_COMPLETE, rule_ids=["RS002"]) == []

    def test_missing_field_flagged(self):
        src = MERGEABLE_MISSING.replace(", peak=0", "")
        violations = lint(src, rule_ids=["RS002"])
        assert ids_of(violations) == ["RS002"]
        assert "peak" in violations[0].message
        assert "Partial.merge" in violations[0].message

    def test_keyword_reference_counts(self):
        assert lint(MERGEABLE_MISSING, rule_ids=["RS002"]) == []

    def test_plain_class_init_fields(self):
        src = ("class Box:\n"
               "    def __init__(self):\n"
               "        self.a = 0\n        self.b = 0\n"
               "    def merge_from(self, other):\n"
               "        self.a += other.a\n")
        violations = lint(src, rule_ids=["RS002"])
        assert ids_of(violations) == ["RS002"]
        assert "b" in violations[0].message

    def test_class_without_merge_ignored(self):
        src = ("class Plain:\n"
               "    def __init__(self):\n        self.a = 0\n")
        assert lint(src, rule_ids=["RS002"]) == []

    def test_classvar_fields_exempt(self):
        src = ("from dataclasses import dataclass\n"
               "from typing import ClassVar\n\n"
               "@dataclass\nclass P:\n"
               "    kind: ClassVar[str] = 'p'\n    n: int = 0\n\n"
               "    def merge(self, other):\n"
               "        return P(n=self.n + other.n)\n")
        assert lint(src, rule_ids=["RS002"]) == []


# ---------------------------------------------------------------------------
# RS003 — obs-guard


OBS_PREFIX = "from repro.obs import metrics as _obs_metrics\n"
LIVE_PREFIX = "from repro.obs import live as _obs_live\n"


class TestObsGuardRule:
    def test_guard_idiom_clean(self):
        src = OBS_PREFIX + (
            "def f():\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    if reg is not None:\n"
            "        reg.counter('c').inc()\n")
        assert lint(src, rule_ids=["RS003"]) == []

    def test_unguarded_use_flagged(self):
        src = OBS_PREFIX + (
            "def f():\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    reg.counter('c').inc()\n")
        violations = lint(src, rule_ids=["RS003"])
        assert ids_of(violations) == ["RS003"]
        assert "'reg'" in violations[0].message

    def test_early_return_guard_clean(self):
        src = OBS_PREFIX + (
            "def f():\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    if reg is None:\n"
            "        return\n"
            "    reg.counter('c').inc()\n")
        assert lint(src, rule_ids=["RS003"]) == []

    def test_and_conjunct_guard_clean(self):
        src = OBS_PREFIX + (
            "def f(valid):\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    if valid and reg is not None:\n"
            "        reg.counter('c').inc()\n")
        assert lint(src, rule_ids=["RS003"]) == []

    def test_truthiness_guard_still_flagged(self):
        # An empty MetricsRegistry is falsy, so `if reg:` is NOT a guard;
        # both the truthiness test and the body use are reported.
        src = OBS_PREFIX + (
            "def f():\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    if reg:\n"
            "        reg.counter('c').inc()\n")
        assert ids_of(lint(src, rule_ids=["RS003"])) == ["RS003", "RS003"]

    def test_inline_slot_use_flagged(self):
        src = OBS_PREFIX + (
            "def f():\n"
            "    _obs_metrics.ACTIVE.counter('c').inc()\n")
        violations = lint(src, rule_ids=["RS003"])
        assert ids_of(violations) == ["RS003"]
        assert "inline" in violations[0].message

    def test_parameter_passing_out_of_scope(self):
        # A helper that *receives* an already-guarded collector is clean.
        src = OBS_PREFIX + (
            "def helper(reg):\n"
            "    reg.counter('c').inc()\n")
        assert lint(src, rule_ids=["RS003"]) == []

    def test_obs_and_test_modules_exempt(self):
        src = OBS_PREFIX + (
            "def f():\n"
            "    reg = _obs_metrics.ACTIVE\n"
            "    reg.counter('c').inc()\n")
        assert lint(src, path="src/repro/obs/helper.py",
                    rule_ids=["RS003"]) == []
        assert lint(src, path="tests/test_x.py", rule_ids=["RS003"]) == []

    def test_live_slot_guard_idiom_clean(self):
        src = LIVE_PREFIX + (
            "def f():\n"
            "    emitter = _obs_live.ACTIVE\n"
            "    if emitter is not None:\n"
            "        emitter.beat('run_start', 't', shards=4)\n")
        assert lint(src, rule_ids=["RS003"]) == []

    def test_live_slot_unguarded_use_flagged(self):
        src = LIVE_PREFIX + (
            "def f():\n"
            "    emitter = _obs_live.ACTIVE\n"
            "    emitter.beat('run_start', 't', shards=4)\n")
        violations = lint(src, rule_ids=["RS003"])
        assert ids_of(violations) == ["RS003"]
        assert "'emitter'" in violations[0].message

    def test_live_slot_inline_use_flagged(self):
        src = LIVE_PREFIX + (
            "def f():\n"
            "    _obs_live.ACTIVE.beat('shard_start', 't', 0)\n")
        violations = lint(src, rule_ids=["RS003"])
        assert ids_of(violations) == ["RS003"]
        assert "inline" in violations[0].message

    def test_live_slot_truthiness_guard_flagged(self):
        src = LIVE_PREFIX + (
            "def f():\n"
            "    emitter = _obs_live.ACTIVE\n"
            "    if emitter:\n"
            "        emitter.beat('progress', 't', 0, records=1)\n")
        assert ids_of(lint(src, rule_ids=["RS003"])) == ["RS003", "RS003"]

    def test_escape_by_alias_and_return_fires(self):
        # RS204: a module-level alias and a returned slot both hand out
        # unguarded references.
        src = OBS_PREFIX + (
            "SLOT = _obs_metrics.ACTIVE\n\n\n"
            "def leak():\n"
            "    return _obs_metrics.ACTIVE\n")
        violations = lint(src)
        assert ids_of(violations) == ["RS204", "RS204"]
        messages = [v.message for v in violations]
        assert any("module-level alias 'SLOT'" in m for m in messages)
        assert any("leak returns the raw obs ACTIVE" in m for m in messages)

    def test_local_guarded_read_does_not_escape(self):
        src = OBS_PREFIX + (
            "def tally(name):\n"
            "    slot = _obs_metrics.ACTIVE\n"
            "    if slot is not None:\n"
            "        slot.incr(name)\n")
        assert lint(src) == []


# ---------------------------------------------------------------------------
# RS203 — merge-called (a graph rule over every file of the run)


PARTIAL_DEF = """\
class Partial:
    def __init__(self) -> None:
        self.count = 0

    def merge_into(self, other: "Partial") -> None:
        other.count += self.count
"""

PARTIAL_BUILD = """\
from .model import Partial


def build(index: int) -> Partial:
    return Partial()
"""

PARTIAL_JOIN = """\
from .model import Partial


def join(parts: list) -> Partial:
    total = Partial()
    for part in parts:
        part.merge_into(total)
    return total
"""


class TestMergeCalledRule:
    def test_never_merged_partial_fires(self, tmp_path):
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF,
                                   "build.py": PARTIAL_BUILD})
        violations = lint_paths([pkg])[0]
        assert ids_of(violations) == ["RS203"]
        assert violations[0].path.endswith("model.py")
        assert violations[0].line == 1
        assert "Partial" in violations[0].message
        assert "merge_into" in violations[0].message

    def test_merged_in_another_module_does_not_fire(self, tmp_path):
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF,
                                   "build.py": PARTIAL_BUILD,
                                   "join.py": PARTIAL_JOIN})
        assert lint_pkg(pkg) == []

    def test_fires_without_any_worker_building_the_class(self, tmp_path):
        # Nothing constructs Partial at all: a merge method that no
        # caller names is reported wherever the class lives.
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF})
        assert lint_pkg(pkg) == ["RS203"]

    def test_test_classes_are_exempt(self, tmp_path):
        tests = tmp_path / "tests"
        tests.mkdir()
        write_pkg(tests, {"model.py": PARTIAL_DEF})
        assert lint_paths([tests])[0] == []  # a tests/ tree is test code

    def test_inline_suppression_silences_finding(self, tmp_path):
        suppressed = PARTIAL_DEF.replace(
            "class Partial:", "class Partial:  # repro-lint: disable=RS203")
        pkg = write_pkg(tmp_path, {"model.py": suppressed})
        assert lint_pkg(pkg) == []

    def test_unused_suppression_is_rs000(self, tmp_path):
        # Once a caller merges the class, the RS203 comment holds nothing.
        suppressed = PARTIAL_DEF.replace(
            "class Partial:", "class Partial:  # repro-lint: disable=RS203")
        pkg = write_pkg(tmp_path, {"model.py": suppressed,
                                   "join.py": PARTIAL_JOIN})
        assert lint_pkg(pkg) == [UNUSED_ID]

    def test_plain_lint_does_not_count_it_unused(self):
        # One string is not a program: lint never runs RS203, so
        # holding a suppression for it is not "unused".
        src = "x = 1  # repro-lint: disable=RS203\n"
        assert lint(src) == []

    def test_one_comment_covers_per_file_and_graph_finding(self, tmp_path):
        # RS001 (the global stream) and RS203 land in one file; one
        # file-level comment names both, and neither half is unused.
        source = "import random\n\nx = random.random()\n\n" + PARTIAL_DEF
        pkg = write_pkg(tmp_path, {"model.py": source})
        assert sorted(lint_pkg(pkg)) == ["RS001", "RS203"]
        (pkg / "model.py").write_text(
            "# repro-lint: disable-file=RS001,RS203\n" + source,
            encoding="utf-8")
        assert lint_pkg(pkg) == []

    def test_rule_universe_includes_graph_rules(self):
        graph_ids = [rule.id for rule in graph_rules()]
        assert graph_ids == ["RS007", "RS008", "RS203"]
        assert set(graph_ids) <= set(all_rule_ids())

    def test_src_repro_is_graph_clean(self):
        # The full self-lint is the meta-test below; this pins that a
        # clean RS203 result there is not vacuous: src/repro holds
        # several mergeable classes, and every one of them is merged.
        files = []
        for path, parts in iter_lintable_files([REPO_ROOT / "src" / "repro"]):
            source = path.read_text(encoding="utf-8")
            files.append(LintContext(str(path), source, ast.parse(source),
                                     parts))
        mergeable = [node.name for ctx in files for node in ast.walk(ctx.tree)
                     if isinstance(node, ast.ClassDef)
                     and any(isinstance(stmt, ast.FunctionDef)
                             and stmt.name in MERGE_METHODS
                             for stmt in node.body)]
        assert "ReplayPartial" in mergeable
        assert len(mergeable) > 3
        # RS007 and RS008 need the callers in tests and examples; see
        # their suites and the CI lint of the whole tree.
        for rule in graph_rules():
            if rule.id in WITHOUT_CALLER_RULES:
                assert rule.check_trees(files) == [], rule.id


# ---------------------------------------------------------------------------
# RS007 — unset-parameter (a graph rule over every file of the run)


SCANNER = """class Scanner:
    def __init__(self, universe, gap_s: float = 1.0):
        self.universe = universe
        self.gap_s = gap_s

    def scan(self, targets, rounds: int = 1):
        return [targets] * rounds


def pace(rate, burst=4):
    return rate * burst
"""


def lint_program(root: Path, package: str, callers: str,
                 test_source: str = "") -> List[str]:
    """Lint a ``repro`` package, an ``examples`` caller and a test."""
    for directory, name, source in (("repro", "scanner.py", package),
                                     ("examples", "use.py", callers),
                                     ("tests", "test_use.py", test_source)):
        (root / directory).mkdir(exist_ok=True)
        (root / directory / name).write_text(source, encoding="utf-8")
    violations = lint_paths([root / "repro", root / "examples",
                             root / "tests"])[0]
    return [f"{v.rule_id}:{v.message.split('(')[1].split('=')[0]}"
            if v.rule_id == "RS007" else v.rule_id for v in violations]


class TestUnsetParameterRule:
    CALLS = "s = Scanner(u)\ns.scan(t)\npace(9)\n"

    def test_parameters_no_call_passes_are_flagged(self, tmp_path):
        assert lint_program(tmp_path, SCANNER, self.CALLS) == [
            "RS007:gap_s", "RS007:rounds", "RS007:burst"]

    def test_set_by_keyword_anywhere(self, tmp_path):
        callers = self.CALLS + "Scanner(u, gap_s=0.5)\nother(rounds=2)\n"
        assert lint_program(tmp_path, SCANNER, callers) == ["RS007:burst"]

    def test_set_by_position_on_a_callee_of_its_name(self, tmp_path):
        callers = self.CALLS + "Scanner(u, 0.5)\ns.scan(t, 2)\nrate(9, 8)\n"
        assert lint_program(tmp_path, SCANNER, callers) == ["RS007:burst"]

    def test_a_splat_passes_everything(self, tmp_path):
        callers = self.CALLS + "Scanner(*args)\npace(9, **opts)\n"
        assert lint_program(tmp_path, SCANNER, callers) == ["RS007:rounds"]

    def test_callers_in_tests_count_and_test_defaults_do_not(self, tmp_path):
        test_source = ("def helper(x=1):\n    return x\n\n\n"
                       "def test_it():\n    assert pace(1, 2) == 2\n")
        assert lint_program(tmp_path, SCANNER, self.CALLS, test_source) == [
            "RS007:gap_s", "RS007:rounds"]

    def test_private_names_are_exempt(self, tmp_path):
        source = ("def _pace(rate, burst=4):\n    return rate\n\n\n"
                  "class _Hidden:\n    def __init__(self, x=1):\n"
                  "        self.x = x\n")
        assert lint_program(tmp_path, source, "") == []

    def test_suppression_states_a_reason(self, tmp_path):
        source = SCANNER.replace(
            "def pace(rate, burst=4):",
            "def pace(rate,\n"
            "         burst=4):  # repro-lint: disable=RS007 (an API)")
        assert lint_program(tmp_path, source, self.CALLS) == [
            "RS007:gap_s", "RS007:rounds"]
        # Once a caller sets it, the comment holds nothing.
        assert lint_program(tmp_path, source, self.CALLS + "pace(1, 2)\n") \
            == ["RS007:gap_s", "RS007:rounds", UNUSED_ID]


# ---------------------------------------------------------------------------
# RS008 — test-only-definition (a graph rule over every file of the run)


LIBRARY = """def probe(target):
    return target


def helper(target):
    return target


class Prober:
    def run(self, target):
        return target

    def reset(self):
        return None


def exported(target):
    return target


def by_name(target):
    return target


def _private(target):
    return target
"""

PLANTED = {
    "repro/__init__.py": 'from .lib import exported\n\n__all__ = ["exported"]\n',
    "repro/lib.py": LIBRARY,
    "repro/registry.py": 'HOOKS = ("by_name",)\n',
    "examples/use.py": "from repro.lib import Prober, probe\n\n"
                       "Prober().run(probe(1))\n",
    "tests/test_lib.py": "from repro import exported\n"
                         "from repro.lib import Prober, helper\n\n\n"
                         "def test_it():\n"
                         "    assert helper(1) == exported(1)\n"
                         "    Prober().reset()\n",
}


def lint_definitions(root: Path, files: Dict[str, str]) -> List[str]:
    """Lint a planted tree (path -> source); an RS008 finding reads as
    the name it reports."""
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    violations = lint_paths(sorted({root / Path(name).parts[0]
                                    for name in files}))[0]
    return [v.message.split(" loads ")[1].split(";")[0]
            if v.rule_id == "RS008" else v.rule_id for v in violations]


class TestTestOnlyDefinitionRule:
    def test_names_only_tests_or_a_reexport_load_are_flagged(self,
                                                             tmp_path):
        # helper and Prober.reset: only test_lib.py loads them; exported:
        # only the package __init__ re-exports it.  probe, Prober and
        # Prober.run have an example caller; by_name is named in a
        # string; _private is private.
        assert lint_definitions(tmp_path, PLANTED) == [
            "helper", "Prober.reset", "exported"]

    def test_suppression_states_a_reason(self, tmp_path):
        files = dict(PLANTED)
        files["repro/lib.py"] = LIBRARY.replace(
            "def helper(target):",
            "def helper(target):  # repro-lint: disable=RS008 (an API)")
        assert lint_definitions(tmp_path / "a", files) == [
            "Prober.reset", "exported"]
        # Once a caller loads it, the comment holds nothing.
        files["examples/use.py"] += "helper(2)\n"
        assert lint_definitions(tmp_path / "b", files) == [
            UNUSED_ID, "Prober.reset", "exported"]


# ---------------------------------------------------------------------------
# RS005 — seeded-RNG plumbing


class TestSeededRngRule:
    def test_unseeded_random_flagged(self):
        src = "import random\n\ndef f():\n    return random.Random()\n"
        violations = lint(src, rule_ids=["RS005"])
        assert ids_of(violations) == ["RS005"]
        assert "no seed" in violations[0].message

    def test_constant_seed_flagged(self):
        src = "import random\n\ndef f():\n    return random.Random(42)\n"
        violations = lint(src, rule_ids=["RS005"])
        assert ids_of(violations) == ["RS005"]
        assert "42" in violations[0].message

    def test_system_random_flagged(self):
        src = "import random\nr = random.SystemRandom()\n"
        violations = lint(src, rule_ids=["RS005"])
        assert ids_of(violations) == ["RS005"]
        assert "SystemRandom" in violations[0].message

    def test_parameter_seed_ok(self):
        src = ("import random\n\ndef f(seed):\n"
               "    return random.Random(seed)\n")
        assert lint(src, rule_ids=["RS005"]) == []

    def test_derived_seed_ok(self):
        src = ("import random\nfrom repro.engine.seeding import derive_seed\n"
               "def f(root, i):\n"
               "    return random.Random(derive_seed(root, i))\n")
        assert lint(src, rule_ids=["RS005"]) == []

    def test_tests_exempt(self):
        src = "import random\nr = random.Random(0)\n"
        assert lint(src, path="tests/test_x.py", rule_ids=["RS005"]) == []

    def test_reseeding_in_place_flagged(self):
        src = ("def f(rng, n):\n"
               "    rng.seed(n)\n"
               "    return rng.random()\n")
        violations = lint(src, rule_ids=["RS005"])
        assert ids_of(violations) == ["RS005"]
        assert "reseeding" in violations[0].message

    def test_module_level_reseed_not_double_reported(self):
        # random.seed() is RS001's ambient-stream violation; RS005 must
        # not pile a second finding on the same call.
        src = "import random\nrandom.seed(3)\n"
        assert lint(src, rule_ids=["RS005"]) == []
        assert ids_of(lint(src, rule_ids=["RS001"])) == ["RS001"]

    def test_reseeding_exempt_in_tests(self):
        src = "def f(rng):\n    rng.seed(1)\n"
        assert lint(src, path="tests/test_x.py", rule_ids=["RS005"]) == []

    def test_seed_attribute_access_ok(self):
        # Reading/storing a .seed attribute is plumbing, not reseeding.
        src = ("class Builder:\n"
               "    def __init__(self, seed):\n"
               "        self.seed = seed\n"
               "    def derived(self):\n"
               "        return self.seed + 1\n")
        assert lint(src, rule_ids=["RS005"]) == []


# ---------------------------------------------------------------------------
# RS006 — unused imports


class TestUnusedImportRule:
    def test_unused_names_flagged(self):
        src = ("import os\nfrom typing import Dict, List\n\n"
               "def f() -> List[int]:\n    return []\n")
        violations = lint(src, rule_ids=["RS006"])
        assert ids_of(violations) == ["RS006", "RS006"]
        assert [(v.line, v.message) for v in violations] == [
            (1, "'os' is imported but never used; delete the import"),
            (2, "'Dict' is imported but never used; delete the import")]

    def test_function_level_and_aliased_imports_flagged(self):
        src = ("import a.b as c\n\n"
               "def f():\n    from m import g\n    return 1\n")
        assert sorted(v.message.split()[0] for v in
                      lint(src, rule_ids=["RS006"])) == ["'c'", "'g'"]

    def test_loads_count(self):
        src = ("import os\nfrom m import g, h as k\n\n"
               "@g\ndef f():\n    return os.sep, k\n")
        assert lint(src, rule_ids=["RS006"]) == []

    def test_forward_references_and_all_count(self):
        src = ("from typing import List\nfrom m import A, B, C, D\n"
               "__all__ = ['D']\nAlias = List['B']\n"
               "def f(x: 'A') -> 'List[C]':\n    return [x]\n")
        assert lint(src, rule_ids=["RS006"]) == []

    def test_a_string_elsewhere_does_not_count(self):
        src = "import os\nname = 'os'\n"
        assert ids_of(lint(src, rule_ids=["RS006"])) == ["RS006"]

    def test_exemptions(self):
        assert lint("from __future__ import annotations\n"
                    "from m import *\nimport a.b\n",
                    rule_ids=["RS006"]) == []
        assert lint("from .core import thing\n",
                    path="src/repro/pkg/__init__.py",
                    rule_ids=["RS006"]) == []

    def test_tests_are_not_exempt(self):
        src = "import pytest\n"
        assert ids_of(lint(src, path="tests/test_x.py",
                           rule_ids=["RS006"])) == ["RS006"]

    def test_suppression(self):
        src = "from . import rules  # repro-lint: disable=RS006\n"
        assert lint(src, rule_ids=["RS006"]) == []


# ---------------------------------------------------------------------------
# RS100 — Prometheus exposition (file rule)


VALID_PROM = (
    "# HELP requests_total Total requests.\n"
    "# TYPE requests_total counter\n"
    'requests_total{method="get"} 4\n'
)

INVALID_PROM = "orphan_metric 12\n"


class TestPromRule:
    def test_valid_file_clean(self, tmp_path):
        path = tmp_path / "ok.prom"
        path.write_text(VALID_PROM)
        violations, files = lint_paths([path])
        assert violations == [] and files == 1

    def test_invalid_file_flagged_with_line(self, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text(INVALID_PROM)
        violations, _ = lint_paths([path])
        assert ids_of(violations) == ["RS100"]
        assert violations[0].line == 1
        assert "TYPE" in violations[0].message

    def test_directory_walk_skips_prom_files(self, tmp_path):
        (tmp_path / "bad.prom").write_text(INVALID_PROM)
        (tmp_path / "mod.py").write_text("x = 1\n")
        violations, files = lint_paths([tmp_path])
        assert violations == [] and files == 1

    def test_scrape_suffix_covered(self, tmp_path):
        # Bodies saved from the live /metrics endpoint lint as .scrape.
        good = tmp_path / "mid-run.scrape"
        good.write_text(VALID_PROM)
        violations, files = lint_paths([good])
        assert violations == [] and files == 1
        bad = tmp_path / "broken.scrape"
        bad.write_text(INVALID_PROM)
        violations, _ = lint_paths([bad])
        assert ids_of(violations) == ["RS100"]

    def test_concatenated_scrapes_rejected(self, tmp_path):
        # Two scrape bodies glued together redeclare every # TYPE —
        # the strict parser calls that out instead of merging them.
        path = tmp_path / "double.scrape"
        path.write_text(VALID_PROM + VALID_PROM)
        violations, _ = lint_paths([path])
        assert ids_of(violations) == ["RS100"]
        assert "duplicate # TYPE" in violations[0].message


# ---------------------------------------------------------------------------
# suppressions


class TestSuppressions:
    def test_line_suppression_silences(self):
        src = "import random\nx = random.random()  # repro-lint: disable=RS001\n"
        assert lint(src, rule_ids=["RS001"]) == []

    def test_file_suppression_silences_all_matching(self):
        src = ("# repro-lint: disable-file=RS001\n"
               "import random\nx = random.random()\ny = random.random()\n")
        assert lint(src, rule_ids=["RS001"]) == []

    def test_suppression_is_rule_specific(self):
        src = "import random\nx = random.random()  # repro-lint: disable=RS002\n"
        got = lint(src, rule_ids=["RS001", "RS002"])
        # RS001 still fires and the RS002 suppression is reported unused.
        assert sorted(ids_of(got)) == [UNUSED_ID, "RS001"]

    def test_unused_suppression_reported(self):
        src = "x = 1  # repro-lint: disable=RS001\n"
        violations = lint(src)
        assert ids_of(violations) == [UNUSED_ID]
        assert violations[0].line == 1
        assert "RS001" in violations[0].message

    def test_unused_not_reported_for_deselected_rule(self):
        src = "x = 1  # repro-lint: disable=RS001\n"
        assert lint(src, rule_ids=["RS002"]) == []

    def test_unknown_rule_suppression_always_reported(self):
        src = "x = 1  # repro-lint: disable=RS0042\n"
        violations = lint(src, rule_ids=["RS002"])
        assert ids_of(violations) == [UNUSED_ID]

    def test_suppression_inside_string_ignored(self):
        src = 'msg = "# repro-lint: disable=RS001"\n'
        assert lint(src) == []

    def test_multiple_ids_one_comment(self):
        src = ("import random\n"
               "x = random.Random()  # repro-lint: disable=RS005, RS001\n")
        got = lint(src, rule_ids=["RS001", "RS005"])
        # RS005 fires and is suppressed; the RS001 half is unused.
        assert ids_of(got) == [UNUSED_ID]

    def test_line_beats_file_suppression_for_same_rule(self):
        # Precedence is line-first: with both forms present for one
        # rule, the line suppression absorbs the violation and the
        # file-level one is reported unused — the narrower form wins,
        # so a stale blanket waiver cannot hide behind a precise one.
        src = ("# repro-lint: disable-file=RS001\n"
               "import random\n"
               "x = random.random()  # repro-lint: disable=RS001\n")
        got = lint(src, rule_ids=["RS001"])
        assert ids_of(got) == [UNUSED_ID]
        assert got[0].line == 1  # the file-level comment is the unused one

    def test_file_suppression_covers_lines_without_their_own(self):
        # The blanket form is not unused when any line actually needs it.
        src = ("# repro-lint: disable-file=RS001\n"
               "import random\n"
               "x = random.random()\n"
               "y = random.random()  # repro-lint: disable=RS001\n")
        assert lint(src, rule_ids=["RS001"]) == []


# ---------------------------------------------------------------------------
# syntax errors


def test_syntax_error_reported_as_rs999():
    violations = lint("def broken(:\n")
    assert ids_of(violations) == [SYNTAX_ID]
    assert violations[0].line == 1


# ---------------------------------------------------------------------------
# reporters


class TestReporters:
    def test_text_report_lines(self):
        src = "import random\nx = random.random()\n"
        violations = lint(src, rule_ids=["RS001"])
        text = render_text(violations, files_checked=1)
        first, summary = text.splitlines()
        assert first.startswith(f"{SRC_PATH}:2:")
        assert "RS001" in first and "[determinism]" in first
        assert summary == "1 violation in 1 file"
        assert render_text([], 3).startswith("clean: 0 violations in 3 files")

    def test_violations_sorted_deterministically(self):
        src = ("import random\nimport time\n"
               "b = time.time()\na = random.random()\n")
        violations = lint(src, rule_ids=["RS001"])
        assert [v.line for v in violations] == [3, 4]
        assert render_text(violations, 1).endswith("2 violations in 1 file")


# ---------------------------------------------------------------------------
# the meta-test: the reproduction's own source lints clean


def test_self_lint_src_repro_is_clean():
    violations, files = lint_paths([REPO_ROOT / "src" / "repro"],
                                   rule_ids=WITHOUT_CALLER_RULES)
    assert files > 50
    assert violations == [], "\n" + render_text(violations, files)


# ---------------------------------------------------------------------------
# the driver: one parse per file, order-independent reports


ESCAPE = OBS_PREFIX + """\
SLOT = _obs_metrics.ACTIVE


def leak():
    return _obs_metrics.ACTIVE
"""


class TestDriver:
    def test_each_file_is_parsed_exactly_once(self, tmp_path, monkeypatch):
        pkg = write_pkg(tmp_path, {"model.py": PARTIAL_DEF,
                                   "build.py": PARTIAL_BUILD})
        parsed: List[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        violations, files = lint_paths([pkg])
        assert files == 3 and ids_of(violations) == ["RS203"]
        assert sorted(parsed) == sorted(
            str(pkg / name) for name in ("__init__.py", "build.py",
                                         "model.py"))

    def test_report_is_independent_of_path_argument_order(self, tmp_path):
        pkg = write_pkg(tmp_path, {
            "clock.py": "import time\n\nnow = time.time()\n",
            "model.py": PARTIAL_DEF,
            "build.py": PARTIAL_BUILD,
            "escape.py": ESCAPE,
        })
        names = sorted(path.name for path in pkg.iterdir())
        forward = lint_paths([pkg / name for name in names])
        backward = lint_paths([pkg / name for name in reversed(names)])
        assert sorted(ids_of(forward[0])) == ["RS001", "RS203", "RS204",
                                              "RS204"]
        assert render_text(*forward) == render_text(*backward)

    def test_a_file_named_twice_is_linted_once(self, tmp_path, monkeypatch,
                                               capsys):
        (tmp_path / "bad.py").write_text("import random\nx = random.random()\n")
        monkeypatch.chdir(tmp_path)
        assert lint_cli_run(["bad.py", str(tmp_path / "bad.py")]) == 1
        out = capsys.readouterr().out
        assert out.count("RS001") == 1 and "bad.py:2:" in out
        assert out.rstrip().endswith("1 violation in 1 file")

    def test_removed_options_are_usage_errors(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        for argv in (["--graph"], ["--workers", "2"], ["--changed"],
                     ["--format", "sarif"], ["--config", "pyproject.toml"]):
            with pytest.raises(SystemExit) as excinfo:
                lint_cli_run([*argv, str(good)])
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_prom_only_run(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        prom.write_text("# HELP up Liveness.\n# TYPE up gauge\nup 1\n",
                        encoding="utf-8")
        assert lint_cli_run(["--prom", str(prom)]) == 0
        assert "clean: 0 violations in 1 file" in capsys.readouterr().out
        prom.write_text("up 1\n", encoding="utf-8")  # sample, no TYPE
        assert lint_cli_run(["--prom", str(prom)]) == 1
        assert "RS100" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI wiring


class TestCli:
    def test_module_entry_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert lint_cli_run([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RS001" in out and f"{bad}:2:" in out

        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert lint_cli_run([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_module_entry_usage_errors(self, tmp_path, capsys):
        assert lint_cli_run([str(tmp_path / "nope.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_and_ignore(self, tmp_path, capsys):
        # No rule can be switched off: --select and --ignore are usage
        # errors, and the plain run reports the finding they once hid.
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        for argv in (["--select", "RS002"], ["--ignore", "RS001"]):
            with pytest.raises(SystemExit) as excinfo:
                lint_cli_run([*argv, str(bad)])
            assert excinfo.value.code == 2
            assert (f"unrecognized arguments: {argv[0]}"
                    in capsys.readouterr().err)
        assert lint_cli_run([str(bad)]) == 1
        assert "RS001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        # The one report is text: --format json is a usage error.
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_cli_run(["--format", "json", str(bad)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert lint_cli_run([str(bad)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{bad}:2:") and "RS001" in lines[0]
        assert lines[-1] == "1 violation in 1 file"

    def test_rule_catalogue(self):
        assert all_rule_ids() == ["RS001", "RS002", "RS003", "RS005",
                                  "RS006", "RS007", "RS008", "RS100",
                                  "RS203",
                                  "RS204"]

    def test_repro_cli_has_no_lint_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", "src/repro"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
        # ... and building its parser loads no part of the linter.
        probe = ("import sys; from repro.cli import build_parser; "
                 "build_parser(); "
                 "print(sorted(m for m in sys.modules "
                 "if m.startswith('repro.staticcheck')))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             cwd=REPO_ROOT / "src").stdout
        assert out.strip() == "[]"

    def test_prom_flag(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        prom.write_text(VALID_PROM)
        assert lint_cli_run(["--prom", str(prom)]) == 0
        capsys.readouterr()
        prom.write_text(INVALID_PROM)
        assert lint_cli_run(["--prom", str(prom)]) == 1
        assert "RS100" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# path roles: whole components below the lint root


HASH_AND_SEED = "import random\n\nkey = hash(1)\nrng = random.Random(42)\n"
WALL_CLOCK = "import time\n\nnow = time.time()\n"
UNGUARDED = OBS_PREFIX + (
    "def f():\n"
    "    reg = _obs_metrics.ACTIVE\n"
    "    reg.counter('c').inc()\n")


def write_tree(base: Path, files: Dict[str, str]) -> None:
    for name, source in files.items():
        path = base / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


class TestPathRoles:
    @pytest.fixture
    def elsewhere(self, tmp_path, monkeypatch):
        """A current directory that holds none of the linted trees."""
        cwd = tmp_path / "elsewhere"
        cwd.mkdir()
        monkeypatch.chdir(cwd)

    def test_test_named_parent_above_the_root_is_not_a_role(
            self, tmp_path, elsewhere):
        write_tree(tmp_path, {"test_lint/pkg/mod.py": HASH_AND_SEED})
        violations, _ = lint_paths([tmp_path / "test_lint" / "pkg"])
        assert ids_of(violations) == ["RS001", "RS005"]

    def test_a_name_ending_in_obs_is_not_the_obs_layer(self, tmp_path,
                                                        monkeypatch):
        write_tree(tmp_path, {"jobs/pkg/mod.py": WALL_CLOCK})
        monkeypatch.chdir(tmp_path)
        assert ids_of(lint_paths(["jobs/pkg"])[0]) == ["RS001"]

    def test_obs_parent_above_the_root_is_not_a_role(self, tmp_path,
                                                      elsewhere):
        write_tree(tmp_path, {"obs/pkg/mod.py": UNGUARDED})
        violations, _ = lint_paths([tmp_path / "obs" / "pkg"])
        assert ids_of(violations) == ["RS003"]

    def test_relative_and_absolute_spellings_agree(self, tmp_path,
                                                   monkeypatch):
        write_tree(tmp_path, {
            "tree/pkg/mod.py": HASH_AND_SEED + WALL_CLOCK,
            "tree/pkg/obs/clock.py": WALL_CLOCK + UNGUARDED,
            "tree/tests/test_mod.py": HASH_AND_SEED,
            "tree/jobs/run.py": UNGUARDED,
        })
        monkeypatch.chdir(tmp_path)

        def findings(root):
            return [(v.rule_id, v.line, v.col, v.message)
                    for v in lint_paths([root])[0]]

        relative = findings("tree")
        assert relative == findings(str(tmp_path / "tree"))
        assert sorted(rule for rule, *_ in relative) == [
            "RS001", "RS001", "RS003", "RS005"]

    def test_obs_module_named_directly_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_paths(["src/repro/obs/live.py"],
                          rule_ids=WITHOUT_CALLER_RULES) == ([], 1)
