"""RS006 (unused-import): an imported name that is never loaded.

A name counts as loaded where the module reads it as a ``Name``, where a
string in an annotation or a subscript names it (``List["Span"]``) and
where ``__all__`` lists it.  Scope-blind, so a read local of the same
name counts too: it can miss an unused import, never invent one.
Exempt: ``__init__.py`` re-exports, ``__future__`` and ``*`` imports,
and a dotted ``import a.b`` without ``as``, which loads a submodule.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..core import AstRule, LintContext, register

#: A name a type string reads: an identifier not after a dot.
_NAME_IN_STRING = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _type_root(node: ast.AST) -> Optional[ast.AST]:
    """The part of ``node`` whose strings name types or exports."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    if isinstance(node, ast.Subscript):
        return node.slice
    if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets):
        return node.value
    return None


class UnusedImportRule(AstRule):
    """RS006 — every imported name is loaded somewhere in its module."""

    id = "RS006"
    name = "unused-import"

    def check(self, ctx: LintContext) -> None:
        if Path(ctx.path).name == "__init__.py":
            return
        bound: Dict[str, List[ast.AST]] = {}
        loaded: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    dotted = isinstance(node, ast.Import) and "." in alias.name
                    if alias.name != "*" and (alias.asname or not dotted):
                        bound.setdefault(alias.asname or alias.name,
                                         []).append(node)
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    loaded.add(node.id)
            root = _type_root(node)
            for leaf in ast.walk(root) if root is not None else ():
                if isinstance(leaf, ast.Constant) and type(leaf.value) is str:
                    loaded.update(_NAME_IN_STRING.findall(leaf.value))
        for name in sorted(bound.keys() - loaded):
            for node in bound[name]:
                ctx.report(self, node, f"{name!r} is imported but never "
                                       f"used; delete the import")


register(UnusedImportRule())
