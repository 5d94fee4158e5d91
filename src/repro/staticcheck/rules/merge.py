"""RS002 merge-completeness and RS203 merge-called.

The engine's shard algebra rests on classes whose ``merge``/``merge_from``
methods fold *every* field: :class:`~repro.analysis.cache_sim.ReplayPartial`,
the :class:`~repro.obs.metrics.MetricsRegistry` instruments, and
:class:`~repro.engine.executor.EngineReport` snapshots.  Adding a field
without extending the merge silently drops data only when shards > 1 —
the exact class of bug property tests catch only probabilistically.

The rule collects a class's fields (dataclass annotations, plus
``self.x = ...`` assignments in ``__init__`` for plain classes) and
requires every field name to be referenced — as an attribute or as a
constructor keyword — somewhere in the union of the class's merge-family
methods.  Declaration-identity fields that a merge legitimately ignores
get a reviewed inline suppression.

RS203 looks from the caller's side: a non-test class defining a
merge-family method is reported when no ``.<that name>(`` call appears
anywhere in the run.  A name check, not a call graph, it is blind to a
class whose method is named ``merge`` (some ``.merge(`` is always called)
and to a merge method called only on another class of the same name.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Sequence, Set, Tuple

from ..config import Config
from ..core import AstRule, GraphRule, LintContext, Violation, register

MERGE_METHODS = ("merge", "merge_from", "merge_into")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name == "dataclass":
            return True
    return False


def _annotation_is_classvar(annotation: ast.AST) -> bool:
    text = ast.dump(annotation)
    return "ClassVar" in text


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not _annotation_is_classvar(stmt.annotation)):
            fields.append(stmt.target.id)
    return fields


def _init_fields(node: ast.ClassDef) -> List[str]:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            fields: List[str] = []
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = (sub.targets
                               if isinstance(sub, ast.Assign)
                               else [sub.target])
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr not in fields):
                            fields.append(target.attr)
            return fields
    return []


def _merge_methods(node: ast.ClassDef) -> List[ast.FunctionDef]:
    return [stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)
            and stmt.name in MERGE_METHODS]


def _referenced_names(methods: List[ast.FunctionDef]) -> Set[str]:
    """Attribute names and constructor keywords used across the methods."""
    seen: Set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                seen.add(node.arg)
    return seen


class MergeCompletenessRule(AstRule):
    """RS002 — every field of a mergeable class must be merged."""

    id = "RS002"
    name = "merge-completeness"

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(ctx, node)

    def _check_class(self, ctx: LintContext, node: ast.ClassDef) -> None:
        merge_methods = _merge_methods(node)
        if not merge_methods:
            return
        if _is_dataclass(node):
            fields = _dataclass_fields(node)
        else:
            fields = _init_fields(node)
        fields = [f for f in fields if not f.startswith("__")]
        if not fields:
            return
        referenced = _referenced_names(merge_methods)
        missing = [f for f in fields if f not in referenced]
        if missing:
            anchor = merge_methods[0]
            ctx.report(self, anchor,
                       f"{node.name}.{anchor.name} never references "
                       f"field(s) {', '.join(missing)}; a field added "
                       f"without a merge clause silently drops data "
                       f"across shards")


class MergeCalledRule(GraphRule):
    """RS203 — a mergeable class whose merge method nothing calls."""

    id = "RS203"
    name = "merge-called"

    def check_trees(self, trees: Sequence[Tuple[str, ast.Module]],
                    config: Config) -> List[Violation]:
        called: Set[str] = set()
        mergeable: List[Tuple[str, ast.ClassDef, List[str]]] = []
        for path, tree in trees:
            is_test = config.is_test_path(Path(path).as_posix())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in MERGE_METHODS):
                    called.add(node.func.attr)
                elif isinstance(node, ast.ClassDef) and not is_test:
                    names = [method.name for method in _merge_methods(node)]
                    if names:
                        mergeable.append((path, node, names))
        return [Violation(path, node.lineno, node.col_offset, self.id,
                          self.name,
                          f"no call of {'/'.join(names)} appears anywhere "
                          f"in the run, so {node.name} partials are never "
                          f"folded — call its merge method on the parent's "
                          f"merge path")
                for path, node, names in mergeable
                if called.isdisjoint(names)]


register(MergeCompletenessRule())
register(MergeCalledRule())
