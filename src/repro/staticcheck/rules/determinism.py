"""RS001 (determinism) and RS005 (seeded-RNG plumbing).

The reproduction's headline guarantee — identical output for every
``--workers`` value — holds only if no code path consults a source that
varies across runs or processes.  RS001 bans the ambient sources
statically:

- module-level :mod:`random` functions (``random.random()`` et al.,
  called or passed on as values) share one process-global stream
  whose state depends on call order across shards;
- ``time.time()`` / ``datetime.now()`` / ``os.urandom()`` /
  ``uuid.uuid1/uuid4`` read the wall clock or OS entropy (legal only in
  the virtual clock module and the out-of-band ``repro.obs`` layer);
- builtin ``hash()`` is salted per process (PYTHONHASHSEED), and
  iterating a set directly exposes that salt as an ordering.

RS005 closes the remaining holes: constructing ``random.Random`` with no
argument seeds from OS entropy, a hard-coded constant seed outside tests
silently decouples a stream from the experiment's root seed (it should
flow from a parameter or :mod:`repro.engine.seeding`), and reseeding a
generator in place (``rng.seed(...)``) rebases a stream someone else
derived — the fault-injection layer hands each injector a private
derived stream precisely so nothing ever needs to reseed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..core import AstRule, LintContext, register

#: Wall-clock / entropy callables, by canonical dotted name.
_CLOCK_SOURCES = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUIDs",
    "uuid.uuid4": "OS entropy",
}

#: The only attribute of the ``random`` module deterministic code may
#: touch: an owned, explicitly seeded generator instance.
_RANDOM_ALLOWED = {"Random"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _ImportMap:
    """Resolves local names back to canonical stdlib dotted names."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> canonical module path ("random", "datetime"...)
        self.modules: Dict[str, str] = {}
        #: local alias -> canonical function path ("random.random", ...)
        self.functions: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        # "import os.path" binds the top-level name "os"
                        top = alias.name.split(".")[0]
                        self.modules[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.functions[local] = f"{node.module}.{alias.name}"

    def canonical(self, call_func: ast.AST) -> Optional[str]:
        """Canonical dotted path of a call target, if resolvable."""
        dotted = dotted_name(call_func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.functions:
            return self.functions[head] + ("." + rest if rest else "")
        if head in self.modules:
            return self.modules[head] + ("." + rest if rest else "")
        return None


class DeterminismRule(AstRule):
    """RS001 — ban ambient nondeterminism sources."""

    id = "RS001"
    name = "determinism"

    def check(self, ctx: LintContext) -> None:
        imports = _ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._check_call(ctx, imports, node)
            elif isinstance(node, (ast.Attribute, ast.Name)):
                self._check_random(ctx, imports, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                self._check_iteration(ctx, node)

    def _check_random(self, ctx: LintContext, imports: _ImportMap,
                      node: "ast.Attribute | ast.Name") -> None:
        """Flag a module-level :mod:`random` function, called or not: a
        bound ``random.random`` handed to ``map`` draws from the global
        stream as surely as a call does."""
        canonical = imports.canonical(node)
        if canonical is None:
            return
        module, _, function = canonical.partition(".")
        if (module == "random" and function
                and "." not in function
                and function not in _RANDOM_ALLOWED):
            ctx.report(self, node,
                       f"{canonical} uses the process-global random "
                       f"stream; construct a seeded random.Random and "
                       f"pass it explicitly")

    def _check_call(self, ctx: LintContext, imports: _ImportMap,
                    node: ast.Call) -> None:
        canonical = imports.canonical(node.func)
        if canonical is not None:
            why = _CLOCK_SOURCES.get(canonical)
            if why is not None and not (ctx.in_obs or ctx.is_test):
                ctx.report(self, node,
                           f"{canonical}() reads {why}; experiment code "
                           f"must use the virtual clock (net/clock.py) or "
                           f"live in the out-of-band obs layer")
                return
        if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and not ctx.is_test):
            ctx.report(self, node,
                       "builtin hash() is salted per process "
                       "(PYTHONHASHSEED); derive stable keys via hashlib "
                       "or repro.engine.sharding.stable_bucket")

    def _check_iteration(self, ctx: LintContext,
                         node: "ast.For | ast.comprehension") -> None:
        """Flag ``for x in set(...)`` — iteration order leaks hash salt."""
        iterable = node.iter
        if _is_set_expr(iterable) and not ctx.is_test:
            anchor = iterable if isinstance(node, ast.comprehension) else node
            ctx.report(self, anchor,
                       "iterating a set exposes hash-salted ordering; "
                       "wrap it in sorted(...) before iterating")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    return False


class SeededRngRule(AstRule):
    """RS005 — every ``random.Random`` must be plumbed a derived seed."""

    id = "RS005"
    name = "seeded-rng"

    def check(self, ctx: LintContext) -> None:
        if ctx.is_test:
            return
        imports = _ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.canonical(node.func)
            if (canonical is None and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "seed"):
                # rng.seed(...) — module-level random.seed() is RS001's.
                ctx.report(self, node,
                           "reseeding a generator in place detaches its "
                           "stream from the seed it was derived with; "
                           "construct a fresh random.Random seeded via "
                           "repro.engine.seeding instead")
                continue
            if canonical not in ("random.Random", "random.SystemRandom"):
                continue
            if canonical == "random.SystemRandom":
                ctx.report(self, node,
                           "random.SystemRandom draws OS entropy and can "
                           "never replay; use a seeded random.Random")
                continue
            if not node.args and not node.keywords:
                ctx.report(self, node,
                           "random.Random() with no seed draws OS entropy; "
                           "pass a seed plumbed from the caller or derived "
                           "via repro.engine.seeding")
            elif node.args and isinstance(node.args[0], ast.Constant):
                ctx.report(self, node,
                           f"random.Random({node.args[0].value!r}) pins a "
                           f"constant seed outside tests; the seed must "
                           f"flow from a parameter or engine.seeding so "
                           f"shard streams stay derived from the root seed")


register(DeterminismRule())
register(SeededRngRule())
