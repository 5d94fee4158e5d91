"""RS003 (obs-guard) and RS204 (obs-escape).

``repro.obs`` is strictly out-of-band: experiment outputs must be
byte-identical with observability on or off, and a *disabled* collector
must cost one global load per instrumented call site.  Both properties
hold only if every call site follows the guard idiom::

    reg = _obs_metrics.ACTIVE
    if reg is not None:
        reg.counter(...).inc(...)

This rule tracks names bound from the ``ACTIVE`` slot of
:mod:`repro.obs.metrics`, :mod:`repro.obs.trace` and
:mod:`repro.obs.live` (the heartbeat emitter slot follows the exact
same contract) and reports any use of such a name that is not dominated
by an ``is None`` / ``is not None`` check: an early ``if x is None: return``,
an ``if x is not None:`` block, the guarded arm of a conditional
expression, or the tail of an ``x is not None and ...`` BoolOp.  Plain
truthiness (``if reg:``) is deliberately rejected — an empty
``MetricsRegistry`` is falsy (it defines ``__len__``), so a truthiness
guard would drop metrics on the first instrument of a shard.

Modules inside ``repro/obs/`` and test code are exempt; helper functions
that *receive* an already-guarded collector as a parameter are out of
scope (the binding from ``ACTIVE`` is what starts tracking).

RS204 closes the two ways a reference can leave that local discipline:
a helper that *returns* the slot hands its callers an alias RS003 cannot
track, and a module-level ``NAME = <obs module>.ACTIVE`` captures the
slot at import time and goes stale when it is re-activated.  Both are
visible in the one file that commits them, so the rule lives here.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..core import AstRule, LintContext, Violation, register
from .determinism import dotted_name

#: Module basenames whose ``ACTIVE`` slot starts tracking.
_OBS_MODULES = ("metrics", "trace", "live")

#: Dotted-suffix forms of the same modules (``repro.obs.live`` etc.).
_OBS_SUFFIXES = ("obs.metrics", "obs.trace", "obs.live")


class _ActiveSlots:
    """Recognizes reads of a ``repro.obs`` ACTIVE slot within one module."""

    def __init__(self, tree: ast.Module) -> None:
        #: local names of ``repro.obs.metrics`` / ``.trace`` / ``.live``
        self.module_aliases: Set[str] = set()
        #: names bound by ``from repro.obs.metrics import ACTIVE [as x]``
        self.active_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "obs" or module.endswith(".obs"):
                    self.module_aliases.update(
                        alias.asname or alias.name for alias in node.names
                        if alias.name in _OBS_MODULES)
                elif module.endswith(_OBS_SUFFIXES):
                    self.active_names.update(
                        alias.asname or alias.name for alias in node.names
                        if alias.name == "ACTIVE")
            elif isinstance(node, ast.Import):
                self.module_aliases.update(
                    alias.asname for alias in node.names
                    if alias.name.endswith(_OBS_SUFFIXES) and alias.asname)

    def reads(self, node: ast.AST) -> bool:
        """True for ``<obs module>.ACTIVE`` or a name imported as that
        slot directly from the obs modules."""
        if isinstance(node, ast.Attribute) and node.attr == "ACTIVE":
            return self._is_obs_module(node.value)
        if isinstance(node, ast.Name):
            return node.id in self.active_names
        return False

    def _is_obs_module(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.module_aliases
        dotted = dotted_name(node)
        return dotted is not None and dotted.endswith(_OBS_SUFFIXES)


class _Guards:
    """Names currently proven non-None, plus the tracked-binding set."""

    def __init__(self, tracked: Set[str], guarded: Set[str]) -> None:
        self.tracked = tracked
        self.guarded = guarded

    def child(self, extra_guarded: Optional[Set[str]] = None) -> "_Guards":
        return _Guards(set(self.tracked),
                       set(self.guarded) | (extra_guarded or set()))


def _none_compare(test: ast.AST) -> Optional[Tuple[str, bool]]:
    """``(name, is_none)`` for ``name is None`` / ``name is not None``."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    op = test.ops[0]
    if not isinstance(op, (ast.Is, ast.IsNot)):
        return None
    left, right = test.left, test.comparators[0]
    name_node, none_node = (left, right) \
        if isinstance(left, ast.Name) else (right, left)
    if not isinstance(name_node, ast.Name):
        return None
    if not (isinstance(none_node, ast.Constant) and none_node.value is None):
        return None
    return name_node.id, isinstance(op, ast.Is)


def _terminates(body: List[ast.stmt]) -> bool:
    if not body:
        return False
    return isinstance(body[-1], (ast.Return, ast.Raise, ast.Continue,
                                 ast.Break))


class ObsGuardRule(AstRule):
    """RS003 — every ACTIVE-slot use must sit behind a None guard."""

    id = "RS003"
    name = "obs-guard"

    def check(self, ctx: LintContext) -> None:
        if ctx.in_obs or ctx.is_test:
            return
        self._ctx = ctx
        self._slots = _ActiveSlots(ctx.tree)
        if not self._slots.module_aliases and not self._slots.active_names:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_body(node.body,
                                 _Guards(set(), set()))
        # module-level statements can misuse ACTIVE too
        self._check_body(ctx.tree.body, _Guards(set(), set()),
                         skip_defs=True)

    # -- statement walk ------------------------------------------------------

    def _check_body(self, body: List[ast.stmt], guards: _Guards,
                    skip_defs: bool = False) -> None:
        for stmt in body:
            if skip_defs and isinstance(stmt, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.ClassDef)):
                continue
            self._check_stmt(stmt, guards)

    def _check_stmt(self, stmt: ast.stmt, guards: _Guards) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                if self._slots.reads(value) and len(targets) == 1 \
                        and isinstance(targets[0], ast.Name):
                    # a fresh unguarded binding from the ACTIVE slot
                    name = targets[0].id
                    guards.tracked.add(name)
                    guards.guarded.discard(name)
                    return
                self._scan_expr(value, guards)
                for target in targets:
                    if isinstance(target, ast.Name):
                        guards.tracked.discard(target.id)
                        guards.guarded.discard(target.id)
            return
        if isinstance(stmt, ast.If):
            self._check_if(stmt, guards)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, guards)
            self._check_body(stmt.body, guards.child())
            self._check_body(stmt.orelse, guards.child())
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, guards)
            self._check_body(stmt.body, guards.child())
            self._check_body(stmt.orelse, guards.child())
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, guards)
            self._check_body(stmt.body, guards.child())
            return
        if isinstance(stmt, ast.Try):
            self._check_body(stmt.body, guards.child())
            for handler in stmt.handlers:
                self._check_body(handler.body, guards.child())
            self._check_body(stmt.orelse, guards.child())
            self._check_body(stmt.finalbody, guards.child())
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # walked separately with fresh state
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guards)

    def _check_if(self, stmt: ast.If, guards: _Guards) -> None:
        compare = _none_compare(stmt.test)
        if compare is not None and compare[0] in guards.tracked:
            name, is_none = compare
            if is_none:  # if name is None: ...
                self._check_body(stmt.body, guards.child())
                self._check_body(stmt.orelse, guards.child({name}))
                if _terminates(stmt.body):
                    guards.guarded.add(name)
            else:  # if name is not None: ...
                self._check_body(stmt.body, guards.child({name}))
                self._check_body(stmt.orelse, guards.child())
                if _terminates(stmt.orelse):
                    guards.guarded.add(name)
            return
        if isinstance(stmt.test, ast.BoolOp) \
                and isinstance(stmt.test.op, ast.And):
            # ``if valid and reg is not None:`` — any is-not-None conjunct
            # guards the body (and later conjuncts, left-to-right).
            local = guards.child()
            guarded_names: Set[str] = set()
            for value in stmt.test.values:
                compare = _none_compare(value)
                if compare is not None and not compare[1]:
                    guarded_names.add(compare[0])
                    local.guarded.add(compare[0])
                    continue
                self._scan_expr(value, local)
            self._check_body(stmt.body, guards.child(guarded_names))
            self._check_body(stmt.orelse, guards.child())
            return
        self._scan_expr(stmt.test, guards)
        self._check_body(stmt.body, guards.child())
        self._check_body(stmt.orelse, guards.child())

    # -- expression scan -----------------------------------------------------

    def _scan_expr(self, node: ast.expr, guards: _Guards) -> None:
        """Report unguarded uses of tracked names inside one expression."""
        if isinstance(node, ast.Compare) and _none_compare(node) is not None:
            return  # the guard itself
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            local = guards.child()
            for value in node.values:
                compare = _none_compare(value)
                if compare is not None and not compare[1]:
                    local.guarded.add(compare[0])
                    continue
                self._scan_expr(value, local)
            return
        if isinstance(node, ast.IfExp):
            compare = _none_compare(node.test)
            if compare is not None:
                name, is_none = compare
                guarded_arm = node.orelse if is_none else node.body
                other_arm = node.body if is_none else node.orelse
                self._scan_expr(guarded_arm, guards.child({name}))
                self._scan_expr(other_arm, guards)
                return
            self._scan_expr(node.test, guards)
            self._scan_expr(node.body, guards)
            self._scan_expr(node.orelse, guards)
            return
        if isinstance(node, ast.Attribute) and self._slots.reads(node):
            return  # bare read of the slot (e.g. into a variable) is fine
        if self._is_direct_active_use(node):
            self._report(node, "repro.obs ACTIVE slot used inline without "
                               "a None guard")
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in guards.tracked \
                and node.id not in guards.guarded:
            self._report(node, f"{node.id!r} is bound from the repro.obs "
                               f"ACTIVE slot but used without an "
                               f"'is not None' guard")
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guards)
            elif isinstance(child, ast.keyword):
                self._scan_expr(child.value, guards)

    def _is_direct_active_use(self, node: ast.expr) -> bool:
        """``_obs_metrics.ACTIVE.counter(...)`` — attribute on the raw slot."""
        return (isinstance(node, ast.Attribute)
                and self._slots.reads(node.value))

    def _report(self, node: ast.AST, message: str) -> None:
        self._ctx.report(self, node, message)


class ObsEscapeRule(AstRule):
    """RS204 — no returning or module-aliasing the obs ACTIVE slot."""

    id = "RS204"
    name = "obs-escape"

    def check(self, ctx: LintContext) -> None:
        if ctx.in_obs or ctx.is_test:
            return
        slots = _ActiveSlots(ctx.tree)
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_returns(ctx, slots, stmt, stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self._check_returns(ctx, slots, sub,
                                            f"{stmt.name}.{sub.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                if len(targets) == 1 and isinstance(targets[0], ast.Name) \
                        and stmt.value is not None \
                        and slots.reads(stmt.value):
                    self._report(
                        ctx, stmt,
                        f"module-level alias '{targets[0].id}' captures "
                        f"the obs ACTIVE slot at import time; it goes "
                        f"stale when the slot is re-activated and bypasses "
                        f"RS003 guard tracking — read the slot inside the "
                        f"function that uses it")

    def _check_returns(self, ctx: LintContext, slots: _ActiveSlots,
                       fn: "ast.FunctionDef | ast.AsyncFunctionDef",
                       qualname: str) -> None:
        """Flag returns of the slot or of a local bound from it."""
        nodes = list(ast.walk(fn))
        bound = {node.targets[0].id for node in nodes
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)
                 and slots.reads(node.value)}
        for node in nodes:
            if isinstance(node, ast.Return) and node.value is not None \
                    and (slots.reads(node.value)
                         or (isinstance(node.value, ast.Name)
                             and node.value.id in bound)):
                self._report(
                    ctx, node,
                    f"{qualname} returns the raw obs ACTIVE slot; callers "
                    f"receive an unguarded alias that escapes RS003's "
                    f"local None-guard — have callers take the slot "
                    f"themselves and guard it locally")

    def _report(self, ctx: LintContext, node: ast.stmt,
                message: str) -> None:
        # anchored at column 0: the finding is about the statement
        ctx.violations.append(Violation(ctx.path, node.lineno, 0, self.id,
                                        self.name, message))


register(ObsGuardRule())
register(ObsEscapeRule())
