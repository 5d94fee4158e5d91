"""RS007 unset-parameter and RS008 test-only-definition: graph rules over
the public definitions of the ``repro`` package.

RS007 reports a default that no call in the run overrides.

Each defaulted parameter of a public module-level function, public method
or public class's ``__init__``, in a non-test file of the ``repro``
package, is reported when no call in the run passes it: by keyword to
any callee, or by position to a callee of its function's, method's or
class's name.  A call of that name that unpacks ``*`` or ``**`` passes
everything.  Like RS203 it is a name check, not a call graph, so it can
miss an unset parameter but never invents one: a keyword of the same
name at any call (``ShardSpec.create(hostname_count=60)``) hides it, and
so does a splat at a call of its name.  A dataclass's ``__init__`` is
not checked.  Over ``src/repro`` alone the callers in tests and examples
are absent: CI lints ``src/repro examples tests benchmarks``.

RS008 reports a public module-level function or class, or a public
method of a public class, in a non-test ``repro`` file when no caller in
the run loads its name.  Callers are the non-test files, ``examples``
among them, and the harness under ``benchmarks/e2e``; a ``test_*.py``
file, a ``tests`` helper or a micro-bench is not one.  A load is a
``Name``, an attribute, an imported name, or a string that is an
identifier (the harness's ``getattr`` and ``vars`` keys); an import or
``__all__`` entry in a package ``__init__.py`` re-exports and is not a
load.  It is a name check too, so it misses a definition whose name
anything else of that name loads (every ``run`` method is called when
one is), a method that only the standard library calls by name
(``do_GET``), and one that only its own body calls; it never reports a
definition that some caller names.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..core import GraphRule, LintContext, Violation, register


def _targets(tree: ast.Module) -> Iterator[Tuple[str, str, ast.stmt, int]]:
    """``(callee name, label, def, leading params a call never passes)``
    of each public function and class and each public class's methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
            yield node.name, node.name, node, 0
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                skip = 0 if any(isinstance(d, ast.Name)
                                and d.id == "staticmethod"
                                for d in item.decorator_list) else 1
                if item.name == "__init__":
                    yield node.name, node.name, item, skip
                elif item.name[0] != "_":
                    yield item.name, f"{node.name}.{item.name}", item, skip


def _defaulted(fn: ast.FunctionDef, skip: int
               ) -> Iterator[Tuple[ast.arg, int]]:
    """``(parameter, position or -1)`` of each parameter with a default."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    for index in range(len(positional) - len(fn.args.defaults),
                       len(positional)):
        yield positional[index], index - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg, -1


class UnsetParameterRule(GraphRule):
    """RS007 — a defaulted public parameter that no call passes."""

    id = "RS007"
    name = "unset-parameter"

    def check_trees(self, files: Sequence[LintContext]) -> List[Violation]:
        keywords: Set[str] = set()
        #: callee name -> most positional arguments any call passes it
        widest: Dict[str, int] = {}
        splat: Set[str] = set()
        for ctx in files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else ""
                for keyword in node.keywords:
                    if keyword.arg is None:
                        splat.add(name)
                    else:
                        keywords.add(keyword.arg)
                if any(isinstance(arg, ast.Starred) for arg in node.args):
                    splat.add(name)
                widest[name] = max(widest.get(name, 0), len(node.args))
        return [Violation(ctx.path, param.lineno, param.col_offset, self.id,
                          self.name,
                          f"no call passes {label}({param.arg}=...); make "
                          f"it a constant, or give a caller that needs "
                          f"another value")
                for ctx in files
                if not ctx.is_test and "repro" in ctx.parts
                for name, label, fn, skip in _targets(ctx.tree)
                if isinstance(fn, ast.FunctionDef) and name not in splat
                for param, position in _defaulted(fn, skip)
                if param.arg not in keywords
                and not 0 <= position < widest.get(name, 0)]


def _is_caller(ctx: LintContext) -> bool:
    name = ctx.parts[-1] if ctx.parts else ""
    if name.startswith("test_") or name == "conftest.py":
        return False
    return not ctx.is_test or ctx.parts[-3:-1] == ("benchmarks", "e2e")


def _loads(ctx: LintContext) -> Iterator[str]:
    """Every name ``ctx`` loads, re-exports of a package ``__init__`` not
    counted."""
    package = ctx.parts[-1:] == ("__init__.py",)
    exported: Set[int] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not package:
                yield from (alias.name.rpartition(".")[2]
                            for alias in node.names)
        elif isinstance(node, ast.Assign) and package and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(id(item) for item in ast.walk(node.value))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in exported:
            yield node.value


class UncalledDefinitionRule(GraphRule):
    """RS008 — a public definition that no caller in the run loads."""

    id = "RS008"
    name = "test-only-definition"

    def check_trees(self, files: Sequence[LintContext]) -> List[Violation]:
        loaded = {name for ctx in files if _is_caller(ctx)
                  for name in _loads(ctx)}
        return [Violation(ctx.path, node.lineno, node.col_offset, self.id,
                          self.name,
                          f"no caller outside the tests loads {label}; "
                          f"delete it, move it beside its tests, or give "
                          f"the reason it stays")
                for ctx in files
                if not ctx.is_test and "repro" in ctx.parts
                for name, label, node, _ in _targets(ctx.tree)
                if not (isinstance(node, ast.FunctionDef)
                        and node.name == "__init__")
                and name not in loaded]


register(UnsetParameterRule())
register(UncalledDefinitionRule())
