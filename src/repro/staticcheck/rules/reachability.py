"""RS201/RS203: worker-reachability rules over the project graph.

They consume the :class:`~repro.staticcheck.graph.ProjectIndex` that
:func:`~repro.staticcheck.graph.lint_paths` links from every file in the
run: a call graph resolved through imports, methods, protocols, and
the engine's declared registries (``BUILDER_REGISTRY`` builders,
``@worker_entrypoint`` functions, ``STATICCHECK_WORKER_SEEDS``).

* **RS201 worker-reachability determinism** — the transitive upgrade of
  RS001/RS005.  Everything reachable from a worker entrypoint must stay
  deterministic: an ambient clock read three frames deep breaks replay
  byte-equivalence even when its own file carries a determinism-allow
  waiver (the one thing per-file RS001 cannot see), and a constant seed
  threaded through call arguments into ``random.Random`` collapses
  every shard onto one stream.
* **RS203 cross-module merge-algebra** — RS002 made whole-program: a
  mergeable class constructed in worker context whose merge method no
  caller anywhere ever invokes is a partial that silently drops data at
  the join point.
"""

from __future__ import annotations

from typing import Dict, List, Set, TYPE_CHECKING

from ..config import Config
from ..core import GraphRule, Violation, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph import ProjectIndex


def _seed_sink_params(project: "ProjectIndex") -> Dict[str, Set[str]]:
    """Fixpoint: parameters that flow (transitively) into an RNG seed.

    A parameter ``p`` of ``f`` is a *seed sink* if ``f`` passes it into
    ``random.Random(...)`` directly, or forwards it into a seed-sink
    parameter of a callee.  Iterates to a fixpoint over the call graph
    in sorted order, so the result is deterministic.
    """
    sinks: Dict[str, Set[str]] = {}
    for key in sorted(project.functions):
        _, fn = project.functions[key]
        if fn.rng_seed_params:
            sinks[key] = set(fn.rng_seed_params)
    edges = project.edges()
    changed = True
    while changed:
        changed = False
        for caller in sorted(project.functions):
            _, fn = project.functions[caller]
            for resolution, site in edges.get(caller, []):
                callee_sinks = sinks.get(resolution.target)
                if not callee_sinks:
                    continue
                _, callee = project.functions[resolution.target]
                for arg in site.args:
                    target_param = _map_param(callee.params, arg.pos,
                                              arg.kw, resolution.bound)
                    if target_param not in callee_sinks:
                        continue
                    for name in arg.params:
                        if name not in sinks.setdefault(caller, set()):
                            sinks[caller].add(name)
                            changed = True
    return sinks


def _map_param(params: List[str], pos: "int | None", kw: "str | None",
               bound: bool) -> "str | None":
    """The callee parameter an argument lands in (approximate)."""
    if kw is not None:
        return kw if kw in params else None
    if pos is None:
        return None
    offset = 1 if bound and params and params[0] in ("self", "cls") else 0
    index = pos + offset
    return params[index] if index < len(params) else None


class WorkerDeterminismRule(GraphRule):
    """RS201: worker-reachable code must be free of ambient entropy."""

    id = "RS201"
    name = "worker-determinism"

    def check_project(self, project: "ProjectIndex",
                      config: Config) -> List[Violation]:
        violations: List[Violation] = []
        reachable, parents = project.worker_reachable()
        for key in sorted(reachable):
            module, fn = project.functions[key]
            if project.is_obs_path(module.path):
                continue  # the live plane is out-of-band by contract
            # Only report what per-file RS001 could not see: clock reads
            # its waivers silenced in *this* file but which are now known
            # to run inside a worker.
            if not (config.allows_clock(module.path)
                    or config.is_test_path(module.path)):
                continue
            for use in fn.ambient:
                chain = project.chain_to(key, parents)
                violations.append(Violation(
                    module.path, use.line, use.col, self.id, self.name,
                    f"{use.source} is reachable from a worker entrypoint "
                    f"(via {chain}); wall-clock reads differ across "
                    f"workers and replays — derive per-shard values from "
                    f"the bound seed instead",
                ))
        violations.extend(self._constant_seeds(project, config, reachable))
        return sorted(violations)

    def _constant_seeds(self, project: "ProjectIndex", config: Config,
                        reachable: Set[str]) -> List[Violation]:
        """Constant seeds threaded through calls into ``random.Random``."""
        sinks = _seed_sink_params(project)
        edges = project.edges()
        violations: List[Violation] = []
        for caller in sorted(reachable):
            module, _ = project.functions[caller]
            if config.is_test_path(module.path) \
                    or project.is_obs_path(module.path):
                continue
            for resolution, site in edges.get(caller, []):
                callee_sinks = sinks.get(resolution.target)
                if not callee_sinks:
                    continue
                _, callee = project.functions[resolution.target]
                for arg in site.args:
                    if arg.const is None:
                        continue
                    target_param = _map_param(callee.params, arg.pos,
                                              arg.kw, resolution.bound)
                    if target_param in callee_sinks:
                        short = resolution.target.split(":", 1)[1]
                        violations.append(Violation(
                            module.path, site.line, site.col, self.id,
                            self.name,
                            f"constant seed {arg.const} flows into "
                            f"random.Random via parameter "
                            f"'{target_param}' of {short}; every shard "
                            f"gets the same stream — thread the bound "
                            f"shard seed through instead",
                        ))
        return violations


class MergeReachabilityRule(GraphRule):
    """RS203: worker-built mergeables must be merged somewhere."""

    id = "RS203"
    name = "merge-reachability"

    def check_project(self, project: "ProjectIndex",
                      config: Config) -> List[Violation]:
        reachable, _ = project.worker_reachable()
        constructed = project.constructed()
        built: Dict[str, int] = {}  # class key -> first construction line
        built_in: Dict[str, str] = {}
        for key in sorted(reachable):
            for class_key, site in constructed.get(key, []):
                if class_key not in built:
                    built[class_key] = site.line
                    built_in[class_key] = key
        merged = self._merged_methods(project)
        violations: List[Violation] = []
        for class_key in sorted(built):
            module, cls = project.classes[class_key]
            if not cls.merge_methods:
                continue
            if config.is_test_path(module.path):
                continue
            if any(m in merged.get(class_key, set())
                   for m in cls.merge_methods):
                continue
            builder = built_in[class_key].split(":", 1)[1]
            violations.append(Violation(
                module.path, cls.line, 0, self.id, self.name,
                f"{cls.name} is constructed in worker context "
                f"(in {builder}) but no caller ever invokes "
                f"{'/'.join(cls.merge_methods)}; shard results will be "
                f"dropped instead of merged — call its merge method on "
                f"the parent's merge path",
            ))
        return sorted(violations)

    def _merged_methods(self, project: "ProjectIndex"
                        ) -> Dict[str, Set[str]]:
        """class key -> merge-method names the project actually calls.

        Resolution is conservative: a call that resolves to the method
        counts, and so does any *unresolved* attribute call with a
        matching merge-method name (we cannot prove it is not this
        class's merge).
        """
        merge_names: Set[str] = set()
        for _, cls in project.classes.values():
            merge_names.update(cls.merge_methods)
        merged: Dict[str, Set[str]] = {}
        unresolved_names: Set[str] = set()
        edges = project.edges()
        for caller in sorted(project.functions):
            module, fn = project.functions[caller]
            resolved_lines = {(res.target, site.line)
                              for res, site in edges.get(caller, [])}
            for res, _ in edges.get(caller, []):
                target_module, _, qual = res.target.partition(":")
                if "." in qual:
                    class_name, method = qual.rsplit(".", 1)
                    if method in merge_names:
                        merged.setdefault(
                            f"{target_module}:{class_name}",
                            set()).add(method)
            for site in fn.calls:
                method = site.method
                if method in merge_names and not any(
                        line == site.line and target.endswith(f".{method}")
                        for target, line in resolved_lines):
                    unresolved_names.add(method)
        if unresolved_names:
            for class_key in sorted(project.classes):
                _, cls = project.classes[class_key]
                for name in cls.merge_methods:
                    if name in unresolved_names:
                        merged.setdefault(class_key, set()).add(name)
        return merged


register(WorkerDeterminismRule())
register(MergeReachabilityRule())
