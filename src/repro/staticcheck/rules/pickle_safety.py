"""RS202: pickle-safety at the engine's spec/header/side-channel edges.

Spec dispatch keeps worker payloads O(1) only because everything that
crosses a process boundary — :class:`~repro.engine.sharding.ShardSpec`
kwargs, the ``encode_header`` shared tuple, the ``QueueEmitter`` side
channel — must survive ``pickle.dumps``.  A lambda, a nested closure, a
lock, a socket, or an mmap-backed store handle in any of those positions
fails at dispatch time (or, worse, only on the one code path that
crosses the boundary under load).

The analyzer never hard-codes the boundary list.  It reads the engine's
own declarations — :data:`repro.engine.pool.PICKLE_BOUNDARIES` at
runtime, plus any ``STATICCHECK_PICKLE_BOUNDARIES`` tuples found while
indexing — so fixtures and future subsystems can declare their own
edges.  Each entry is ``"module:Qual"`` naming a function, method, or
class (constructor), optionally suffixed ``"#kw1,kw2"`` to restrict the
check to the arguments that are actually pickled (e.g. ``run_sharded``
pickles ``shard_args`` and ``shared`` but not ``count_of``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..config import Config
from ..core import GraphRule, Violation, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import ArgInfo, CallSite, ModuleIndex, ProjectIndex

#: Constructors whose instances never pickle (canonical dotted names).
_UNPICKLABLE_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Event", "threading.local",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "socket.socket", "socket.create_connection",
    "mmap.mmap", "open", "io.open", "sqlite3.connect",
})

_BIND_REASON = {
    "lambda": "a lambda (not picklable)",
    "nested": "a function defined inside a function (not picklable)",
    "genexp": "a generator (not picklable)",
    "obs_active": "a live emitter from the obs ACTIVE slot "
                  "(holds queues/sockets; workers get their own via "
                  "the pool initializer)",
}


def _parse_boundary(entry: str) -> Tuple[str, Optional[Set[str]]]:
    """``"module:Qual#kw1,kw2"`` -> (symbol key, arg filter or None)."""
    symbol, _, filt = entry.partition("#")
    if not filt:
        return symbol, None
    return symbol, {part for part in filt.split(",") if part}


class PickleSafetyRule(GraphRule):
    """RS202: nothing unpicklable may flow into a declared boundary."""

    id = "RS202"
    name = "pickle-safety"

    def check_project(self, project: "ProjectIndex",
                      config: Config) -> List[Violation]:
        violations: List[Violation] = []
        for path in sorted(project.modules):
            if not config.is_test_path(path):
                violations.extend(self._check_module(
                    project, project.modules[path]))
        return sorted(violations)

    def _check_module(self, project: "ProjectIndex",
                      module: "ModuleIndex") -> List[Violation]:
        boundaries: Dict[str, Optional[Set[str]]] = {}
        dotted_boundaries: Dict[str, Tuple[str, Optional[Set[str]]]] = {}
        boundary_methods: Dict[str, Optional[Set[str]]] = {}
        for entry in sorted(set(project.facts.get(
                "STATICCHECK_PICKLE_BOUNDARIES", []))):
            symbol, arg_filter = _parse_boundary(entry)
            boundaries[symbol] = arg_filter
            dotted_boundaries[symbol.replace(":", ".")] = (symbol,
                                                           arg_filter)
            _, _, qual = symbol.partition(":")
            if "." in qual:
                boundary_methods[qual.rsplit(".", 1)[1]] = arg_filter
        unpicklable_classes = {
            entry.replace(":", ".")
            for entry in project.facts.get("STATICCHECK_UNPICKLABLE", [])}
        violations: List[Violation] = []
        functions = dict(module.functions)
        for cls in module.classes.values():
            for method in cls.methods.values():
                functions[method.qualname] = method
        for qualname in sorted(functions):
            fn = functions[qualname]
            for site in fn.calls:
                match = self._match_boundary(project, module, fn, site,
                                             boundaries,
                                             dotted_boundaries,
                                             boundary_methods)
                if match is None:
                    continue
                symbol, arg_filter = match
                violations.extend(self._check_args(
                    project, module, fn, site, symbol, arg_filter,
                    unpicklable_classes))
        return sorted(violations)

    def _match_boundary(self, project: "ProjectIndex",
                        module: "ModuleIndex", fn: "object",
                        site: "CallSite",
                        boundaries: Dict[str, Optional[Set[str]]],
                        dotted_boundaries: Dict[
                            str, Tuple[str, Optional[Set[str]]]],
                        boundary_methods: Dict[str, Optional[Set[str]]]
                        ) -> Optional[Tuple[str, Optional[Set[str]]]]:
        """The boundary this call site crosses, if any."""
        resolutions, constructed = project.resolve_call(
            module, fn, site)  # type: ignore[arg-type]
        for class_key in constructed:
            if class_key in boundaries:
                return class_key, boundaries[class_key]
        for resolution in resolutions:
            if resolution.target in boundaries:
                return resolution.target, boundaries[resolution.target]
        # Textual fallback: boundary modules need not be indexed (a
        # fixture project calling the real engine's ShardSpec.create).
        dotted = project.canonical_text(module, site.text)
        if dotted is not None and dotted in dotted_boundaries:
            return dotted_boundaries[dotted]
        method = site.method
        if site.recv_obs and method is not None \
                and method in boundary_methods:
            return f"<obs emitter>.{method}", boundary_methods[method]
        return None

    def _check_args(self, project: "ProjectIndex",
                    module: "ModuleIndex", fn: "object",
                    site: "CallSite", symbol: str,
                    arg_filter: Optional[Set[str]],
                    unpicklable_classes: Set[str]) -> List[Violation]:
        target_params = self._target_params(project, symbol)
        violations: List[Violation] = []
        short = symbol.split(":", 1)[1] if ":" in symbol else symbol
        for arg in site.args:
            if arg_filter is not None:
                landed = arg.kw
                if landed is None and arg.pos is not None \
                        and target_params is not None:
                    index = arg.pos + target_params[1]
                    names = target_params[0]
                    landed = names[index] if index < len(names) else None
                if landed not in arg_filter:
                    continue
            reason = self._unpicklable_reason(module, fn, arg,
                                              unpicklable_classes)
            if reason is None:
                continue
            where = f"argument '{arg.kw}'" if arg.kw is not None \
                else f"argument {arg.pos}"
            violations.append(Violation(
                module.path, site.line, site.col, self.id, self.name,
                f"{where} of {short} is {reason}; this value crosses a "
                f"pickle boundary — pass a module-level function or "
                f"plain data and rebuild handles inside the worker",
            ))
        return violations

    def _target_params(self, project: "ProjectIndex", symbol: str
                       ) -> Optional[Tuple[List[str], int]]:
        """(param names, positional offset) for mapping filtered args."""
        entry = project.functions.get(symbol)
        if entry is None:
            return None
        _, fn = entry
        offset = 1 if fn.params and fn.params[0] in ("self", "cls") else 0
        return fn.params, offset

    def _unpicklable_reason(self, module: "ModuleIndex", fn: "object",
                            arg: "ArgInfo",
                            unpicklable_classes: Set[str]
                            ) -> Optional[str]:
        if arg.kind in ("lambda", "genexp"):
            return _BIND_REASON[arg.kind]
        if arg.kind != "name" or arg.value is None:
            return None
        bind = getattr(fn, "local_binds", {}).get(arg.value)
        if bind is None:
            return None
        if bind in _BIND_REASON:
            return f"bound to {_BIND_REASON[bind]}"
        if bind.startswith(("call:", "type:")):
            dotted = bind.split(":", 1)[1]
            if dotted in _UNPICKLABLE_CTORS:
                return (f"bound to a {dotted} instance "
                        f"(holds OS state; not picklable)")
            if dotted in unpicklable_classes:
                return (f"bound to a {dotted} handle "
                        f"(declared unpicklable; reopen it inside the "
                        f"worker instead)")
        return None


register(PickleSafetyRule())
