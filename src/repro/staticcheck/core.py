"""Rule registry, suppression handling, and the lint driver.

The framework is deliberately tiny: a *rule* is an object with an ``id``
(``RSnnn``), a ``name``, and a ``check`` hook.  AST rules receive a
:class:`LintContext` wrapping one parsed Python file and append
:class:`Violation` records to it; file rules (e.g. the Prometheus
exposition check) receive a path and return violations directly, so
non-Python artifacts ride the same reporting pipeline; graph rules
(RS007, RS008, RS203) receive the :class:`LintContext` of every file in
the run.  The driver over files and directories is :func:`lint_paths`.
Every rule runs on every file; what a file may do depends only on its
role (test code, the obs layer), read from whole path components by
:func:`role_parts`.

Suppressions are source comments::

    risky_line()  # repro-lint: disable=RS001
    # repro-lint: disable-file=RS002   (anywhere in the file)

A ``disable`` comment silences matching violations *on its own line*; a
``disable-file`` comment silences them for the whole file.  Suppressions
that silence nothing are themselves reported (rule :data:`UNUSED_ID`),
so stale escapes cannot linger after the code they excused is fixed.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Reported when a suppression comment matches no violation.
UNUSED_ID = "RS000"
UNUSED_NAME = "unused-suppression"

#: Reported when a Python file does not parse.
SYNTAX_ID = "RS999"
SYNTAX_NAME = "syntax-error"


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.rule_name}] {self.message}")


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """One ``path:line:col: RSnnn [name] message`` line per violation,
    then a count."""
    lines = [violation.render() for violation in violations]
    noun = "file" if files_checked == 1 else "files"
    if violations:
        lines.append(f"{len(violations)} violation"
                     f"{'' if len(violations) == 1 else 's'} "
                     f"in {files_checked} {noun}")
    else:
        lines.append(f"clean: 0 violations in {files_checked} {noun}")
    return "\n".join(lines)


#: A directory of one of these names holds test code.
_TEST_DIRS = frozenset({"tests", "benchmarks", "fixtures"})


def role_parts(path: Path, root: Path) -> Tuple[str, ...]:
    """The path components that decide ``path``'s role.

    They are read below the current directory when the file lies under
    it, else below the parent of ``root`` (the path named on the command
    line): directories above the lint root never make a file test code
    or obs code, however the root was spelled.
    """
    here = Path(os.path.abspath(path))
    base = Path.cwd()
    if not here.is_relative_to(base):
        base = Path(os.path.abspath(root)).parent
    return here.relative_to(base).parts


class LintContext:
    """Everything a rule needs about one parsed Python file.

    ``parts`` are the file's :func:`role_parts`.  A file is test code
    (constant seeds, ``hash()`` and the clock are fine there) when a
    component is ``tests``, ``benchmarks`` or ``fixtures`` or it is named
    ``test_*.py`` or ``conftest.py``; it is in the out-of-band obs layer
    when a component is ``obs`` or it is named ``obs.py``.
    """

    def __init__(self, path: str, source: str, tree: ast.Module,
                 parts: Sequence[str]) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.parts = tuple(parts)
        name = parts[-1] if parts else ""
        self.is_test = (not _TEST_DIRS.isdisjoint(parts)
                        or name == "conftest.py"
                        or (name.startswith("test_")
                            and name.endswith(".py")))
        self.in_obs = "obs" in parts or name == "obs.py"
        self.violations: List[Violation] = []

    def report(self, rule: "AstRule", node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            self.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), rule.id, rule.name, message))


class AstRule:
    """Base class for rules that walk one parsed Python module."""

    id: str = ""
    name: str = ""

    def check(self, ctx: LintContext) -> None:
        raise NotImplementedError


class FileRule:
    """Base class for rules over non-Python files (matched by suffix)."""

    id: str = ""
    name: str = ""

    def applies(self, path: Path) -> bool:
        raise NotImplementedError

    def check_file(self, path: Path) -> List[Violation]:
        raise NotImplementedError


class GraphRule:
    """Base class for rules over all the parsed files of one run.

    :func:`lint_paths` hands them the contexts it already built; they
    are registered here so ``rule_ids``, ``--list-rules`` and
    unused-suppression accounting treat them exactly like the per-file
    families.
    """

    id: str = ""
    name: str = ""

    def check_trees(self, files: Sequence[LintContext]) -> List[Violation]:
        raise NotImplementedError


_AST_RULES: Dict[str, AstRule] = {}
_FILE_RULES: Dict[str, FileRule] = {}
_GRAPH_RULES: Dict[str, GraphRule] = {}


def _register_into(registry: Dict[str, Any], rule: Any) -> None:
    existing = registry.get(rule.id)
    if existing is not None and type(existing) is not type(rule):
        raise ValueError(f"rule id {rule.id} registered twice")
    registry[rule.id] = rule


def register(rule: "AstRule | FileRule | GraphRule"
             ) -> "AstRule | FileRule | GraphRule":
    """Add ``rule`` to the registry (idempotent per rule ID)."""
    if not rule.id or not rule.name:
        raise ValueError(f"rule {rule!r} must declare id and name")
    if isinstance(rule, AstRule):
        _register_into(_AST_RULES, rule)
    elif isinstance(rule, GraphRule):
        _register_into(_GRAPH_RULES, rule)
    else:
        _register_into(_FILE_RULES, rule)
    return rule


def ast_rules() -> List[AstRule]:
    _ensure_rules_loaded()
    return [_AST_RULES[rid] for rid in sorted(_AST_RULES)]


def file_rules() -> List[FileRule]:
    _ensure_rules_loaded()
    return [_FILE_RULES[rid] for rid in sorted(_FILE_RULES)]


def graph_rules() -> List[GraphRule]:
    _ensure_rules_loaded()
    return [_GRAPH_RULES[rid] for rid in sorted(_GRAPH_RULES)]


def all_rule_ids() -> List[str]:
    _ensure_rules_loaded()
    return sorted([*_AST_RULES, *_FILE_RULES, *_GRAPH_RULES])


def _ensure_rules_loaded() -> None:
    """Import the rule modules exactly once (they self-register)."""
    from . import rules  # repro-lint: disable=RS006 (import for side effect)


def _selected_ids(rule_ids: Optional[Sequence[str]] = None) -> Set[str]:
    """Rule IDs a run executes: all of them, or ``rule_ids``."""
    ids = set(all_rule_ids())
    return ids if rule_ids is None else ids & set(rule_ids)


# ---------------------------------------------------------------------------
# suppression comments


_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s-]+)")


class Suppressions:
    """Per-file suppression table with use tracking."""

    def __init__(self) -> None:
        #: line -> rule IDs disabled on that line
        self.by_line: Dict[int, Set[str]] = {}
        self.file_level: Set[str] = set()
        #: comment line of each (line-or-0, rule) suppression, for RS000
        self.declared_at: Dict[Tuple[int, str], int] = {}
        self.used: Set[Tuple[int, str]] = set()

    def add(self, comment_line: int, directive: str, rule_ids: Iterable[str]
            ) -> None:
        for rule_id in rule_ids:
            if directive == "disable-file":
                self.file_level.add(rule_id)
                self.declared_at.setdefault((0, rule_id), comment_line)
            else:
                self.by_line.setdefault(comment_line, set()).add(rule_id)
                self.declared_at.setdefault((comment_line, rule_id),
                                            comment_line)

    def suppresses(self, violation: Violation) -> bool:
        """True (and marks the suppression used) when ``violation`` matches."""
        if violation.rule_id in self.by_line.get(violation.line, ()):
            self.used.add((violation.line, violation.rule_id))
            return True
        if violation.rule_id in self.file_level:
            self.used.add((0, violation.rule_id))
            return True
        return False

    def unused(self, active_ids: Set[str]) -> List[Tuple[int, str]]:
        """(comment line, rule id) of suppressions that silenced nothing.

        Suppressions for known rules that were not run (outside
        ``rule_ids``) are not counted unused; unknown IDs always are, so
        typos like ``RS0001`` cannot silently disarm a suppression.
        """
        out: List[Tuple[int, str]] = []
        known = set(all_rule_ids())
        for key, comment_line in sorted(self.declared_at.items()):
            _, rule_id = key
            if key in self.used:
                continue
            if rule_id in known and rule_id not in active_ids:
                continue  # rule not run this time; keep the suppression
            out.append((comment_line, rule_id))
        return out


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``repro-lint`` comments (tokenize-accurate, string-safe)."""
    table = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        comments = [(lineno, "#" + line.split("#", 1)[1])
                    for lineno, line in enumerate(source.splitlines(), 1)
                    if "#" in line]
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        directive = match.group(1)
        ids = [part.strip() for part in match.group(2).split(",")]
        table.add(lineno, directive, [rid for rid in ids if rid])
    return table


# ---------------------------------------------------------------------------
# one file: analyze, then settle


@dataclass
class FileAnalysis:
    """One Python file's per-file findings, before suppression settlement.

    ``violations`` are the raw AST-rule findings (RS999 alone on a parse
    failure); ``suppressions`` is the file's directive table, which the
    caller settles *after* any graph-rule findings for the same file
    are merged in, so one suppression can serve both kinds without
    RS000 flagging either half unused.  ``context`` holds the parse the
    AST rules ran on (``None`` when the file is broken), which the graph
    rules reuse.
    """

    path: str
    violations: List[Violation]
    suppressions: Suppressions
    context: Optional[LintContext] = None


def analyze_source(source: str, path: str, parts: Sequence[str],
                   rule_ids: Optional[Sequence[str]] = None) -> FileAnalysis:
    """Run the AST rules over one source string (no suppression settling)."""
    active = _selected_ids(rule_ids)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        broken = [Violation(path, exc.lineno or 1, (exc.offset or 1) - 1,
                            SYNTAX_ID, SYNTAX_NAME,
                            f"file does not parse: {exc.msg}")]
        return FileAnalysis(path, broken, Suppressions())
    ctx = LintContext(path, source, tree, parts)
    for rule in ast_rules():
        if rule.id in active:
            rule.check(ctx)
    return FileAnalysis(path, ctx.violations, parse_suppressions(source),
                        ctx)


def settle_file(analysis: FileAnalysis, active: Set[str],
                extra: Sequence[Violation] = ()) -> List[Violation]:
    """Apply suppressions to per-file + ``extra`` findings, report RS000.

    ``extra`` carries graph-rule findings attributed to this file; they
    consult the same line/file directives, so one suppression table
    serves both kinds and unused-suppression accounting sees the union.
    """
    if analysis.context is None:
        return sorted(analysis.violations)
    merged = [*analysis.violations, *extra]
    kept = [v for v in merged if not analysis.suppressions.suppresses(v)]
    for comment_line, rule_id in analysis.suppressions.unused(active):
        kept.append(Violation(
            analysis.path, comment_line, 0, UNUSED_ID, UNUSED_NAME,
            f"suppression for {rule_id} matches no violation; remove it"))
    return sorted(kept)


# ---------------------------------------------------------------------------
# the driver over files and directories


def iter_lintable_files(paths: Sequence["str | Path"]
                        ) -> List[Tuple[Path, Tuple[str, ...]]]:
    """Expand ``paths`` to ``(file, role_parts)``: directories walk to
    ``*.py``, files pass through.

    Non-Python files are linted only when named (or via ``--prom``), so a
    reports directory inside a lint root drags no artifacts into the run.
    A file named twice (``a.py`` and ``$PWD/a.py``) is linted once, under
    its first spelling.
    """
    out: List[Tuple[Path, Tuple[str, ...]]] = []
    seen: Set[Path] = set()
    for raw in paths:
        root = Path(raw)
        candidates = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                out.append((candidate, role_parts(candidate, root)))
    return out


def lint_paths(paths: Sequence["str | Path"],
               rule_ids: Optional[Sequence[str]] = None
               ) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns (sorted violations, files checked).

    Each Python file is parsed once for the AST rules; the graph rules
    run over all the parsed files; each file's suppressions are then
    settled once against both kinds of finding, so an unused graph-rule
    suppression is RS000.  ``rule_ids`` restricts the run.
    """
    active = _selected_ids(rule_ids)
    files = iter_lintable_files(paths)
    violations: List[Violation] = []
    analyses: List[FileAnalysis] = []
    for path, parts in files:
        if path.suffix != ".py":
            for rule in file_rules():
                if rule.id in active and rule.applies(path):
                    violations.extend(rule.check_file(path))
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            violations.append(Violation(str(path), 1, 0, SYNTAX_ID,
                                        SYNTAX_NAME,
                                        f"cannot read file: {exc}"))
            continue
        analyses.append(analyze_source(source, str(path), parts, rule_ids))
    contexts = [analysis.context for analysis in analyses
                if analysis.context is not None]
    found: Dict[str, List[Violation]] = {}
    for rule in graph_rules():
        if rule.id in active:
            for violation in rule.check_trees(contexts):
                found.setdefault(violation.path, []).append(violation)
    for analysis in analyses:
        violations.extend(settle_file(analysis, active,
                                      found.get(analysis.path, ())))
    return sorted(violations), len(files)
