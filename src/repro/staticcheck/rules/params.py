"""RS007 unset-parameter: a default that no call in the run overrides.

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
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ..core import GraphRule, LintContext, Violation, register


def _targets(tree: ast.Module
             ) -> Iterator[Tuple[str, str, ast.FunctionDef, int]]:
    """``(callee name, label, def, leading params a call never passes)``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
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
                if name not in splat
                for param, position in _defaulted(fn, skip)
                if param.arg not in keywords
                and not 0 <= position < widest.get(name, 0)]


register(UnsetParameterRule())
