"""Whole-program analysis: project index, call graph, and the lint driver.

The per-file rules (RS001–RS100, RS204) see one module at a time, so a
helper three calls away from a worker entrypoint can reach ambient
entropy without any of them firing.  This module closes that gap:

* :class:`ModuleIndex` — one file's contribution to the program: import
  map, symbol table, per-function call sites (with receiver-type
  inference from annotations and local constructor bindings), waived
  clock reads, and the introspection *facts* other layers declare for
  the analyzer (``@worker_entrypoint`` decorations, ``BUILDER_REGISTRY``
  literals, ``STATICCHECK_WORKER_SEEDS`` tuples).
* :class:`ProjectIndex` — the linked whole: an approximate call graph
  resolved through imports, methods, protocols and the builder/spec
  registries, plus the worker-reachability closure the RS2xx rules run
  over.
* :func:`lint_paths` — the one driver: every Python file is read and
  parsed once, the AST rules run on it and it is indexed; the RS2xx
  rules run over the linked project; each file's suppression table is
  settled once against both kinds of finding.

Everything here is deterministic: traversals iterate sorted structures
and no wall clock, hash salt or ambient RNG is ever consulted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import Config
from .core import (SYNTAX_ID, SYNTAX_NAME, FileAnalysis, Violation,
                   _selected_ids, analyze_source, file_rules, graph_rules,
                   settle_file)
from .rules.determinism import _CLOCK_SOURCES, _ImportMap, dotted_name
from .rules.merge import MERGE_METHODS

#: The decorator (by canonical dotted name) marking pool dispatch targets.
_ENTRYPOINT_DECORATOR = "repro.engine.pool.worker_entrypoint"

#: Module-level declarations the indexer collects as analyzer facts.
_FACT_TUPLES = ("STATICCHECK_WORKER_SEEDS",)


# ---------------------------------------------------------------------------
# Index data model.


@dataclass
class ArgInfo:
    """One argument at a call site, as the seed-taint rule needs it."""

    pos: Optional[int]
    kw: Optional[str]
    const: Optional[str]  # repr of a literal argument, else None
    params: List[str]  # enclosing-function parameters inside the expr


@dataclass
class CallSite:
    """One call expression, with whatever the indexer could resolve locally."""

    line: int
    col: int
    text: Optional[str]  # dotted source text ("spec.bind", "ShardSpec.create")
    recv_type: Optional[str]  # inferred receiver type, dotted class name
    args: List[ArgInfo]

    @property
    def method(self) -> Optional[str]:
        """The attribute being called, for receiver-based resolution."""
        if self.text and "." in self.text:
            return self.text.rsplit(".", 1)[1]
        return None


@dataclass
class AmbientUse:
    """One wall-clock / entropy read inside a function body."""

    line: int
    col: int
    source: str  # canonical dotted name ("time.time", "os.urandom", ...)


@dataclass
class FunctionInfo:
    """One function or method, as the graph rules see it."""

    qualname: str  # "f", "C.m", or "<module>" for module-level code
    line: int
    col: int
    params: List[str]
    calls: List[CallSite] = field(default_factory=list)
    ambient: List[AmbientUse] = field(default_factory=list)
    #: Parameters whose value flows into a ``random.Random(...)`` seed.
    rng_seed_params: List[str] = field(default_factory=list)
    #: Local bindings receiver-type inference consults: name -> dotted
    #: type, from a parameter annotation or a constructor-call binding.
    local_binds: Dict[str, str] = field(default_factory=dict)
    is_entrypoint: bool = False


@dataclass
class ClassInfo:
    """One class definition: bases, methods, merge/protocol facts."""

    name: str
    line: int
    bases: List[str]  # dotted, resolved through the import map where possible
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    is_protocol: bool = False
    merge_methods: List[str] = field(default_factory=list)


@dataclass
class ModuleIndex:
    """Everything the graph layer keeps about one Python file."""

    path: str  # posix path, as linted
    module: str  # dotted module name ("repro.engine.pool")
    #: local name -> "module" or "module:attr" (absolute, relative resolved)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: builder name -> "module:Class" (the ``BUILDER_REGISTRY`` literal)
    builder_registry: Dict[str, str] = field(default_factory=dict)
    #: declared analyzer facts, keyed by declaration name
    facts: Dict[str, List[str]] = field(default_factory=dict)



# ---------------------------------------------------------------------------
# Module-name derivation.


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists.

    Files outside any package index under their stem, so loose scripts
    still participate in the graph (with no cross-file resolution).
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


# ---------------------------------------------------------------------------
# The per-file indexer.


def _annotation_dotted(node: Optional[ast.expr]) -> Optional[str]:
    """Dotted text of a simple annotation, unwrapping Optional/| None."""
    if node is None:
        return None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.slice) if not isinstance(
            node.slice, ast.Tuple) else None
        outer = dotted_name(node.value)
        if outer in ("Optional", "typing.Optional"):
            return base
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_dotted(node.left)
        right = _annotation_dotted(node.right)
        if left == "None":
            return right
        if right == "None" or right is None:
            return left
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        return text if text.replace(".", "").isidentifier() else None
    return dotted_name(node)


def _const_tuple(node: ast.expr) -> Optional[List[str]]:
    """The string elements of a literal tuple/list, or ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant)
                and isinstance(element.value, str)):
            return None
        out.append(element.value)
    return out


class _FileIndexer:
    """Builds a :class:`ModuleIndex` from one parsed module."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.tree = tree
        self.import_map = _ImportMap(tree)
        self.index = ModuleIndex(path=path,
                                 module=module_name_for(Path(path)))
        self._collect_imports(tree)

    # -- imports -------------------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        index = self.index
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    index.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    index.imports[local] = f"{base}:{alias.name}"

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute module a ``from ... import`` pulls from (dots resolved)."""
        if node.level == 0:
            return node.module
        parts = self.index.module.split(".")
        # for a regular module a.b.c, level 1 is package a.b; __init__
        # indexes as the package itself, so the same arithmetic holds.
        if len(parts) < node.level:
            return node.module
        base = parts[:len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def canonical(self, dotted: Optional[str]) -> Optional[str]:
        """Absolute dotted path of a local dotted reference, if importable."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.index.imports.get(head)
        if target is None:
            return None
        target = target.replace(":", ".")
        return f"{target}.{rest}" if rest else target

    # -- the walk ------------------------------------------------------------

    def build(self) -> ModuleIndex:
        module_fn = FunctionInfo(qualname="<module>", line=1, col=0,
                                 params=[])
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.index.functions[stmt.name] = \
                    self._index_function(stmt, stmt.name, None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt)
            else:
                self._index_module_stmt(stmt, module_fn)
        self.index.functions["<module>"] = module_fn
        return self.index

    def _index_module_stmt(self, stmt: ast.stmt,
                           module_fn: FunctionInfo) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            if value is not None and len(targets) == 1 \
                    and isinstance(targets[0], ast.Name):
                self._module_assignment(targets[0].id, value)
        self._scan_body([stmt], module_fn, params=set(),
                        local_binds=module_fn.local_binds)

    def _module_assignment(self, name: str, value: ast.expr) -> None:
        """Collect the registry literal and the fact tuples."""
        index = self.index
        if name == "BUILDER_REGISTRY" and isinstance(value, ast.Dict):
            for key, val in zip(value.keys, value.values):
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(val, ast.Constant)
                        and isinstance(val.value, str)):
                    index.builder_registry[key.value] = val.value
            return
        if name in _FACT_TUPLES:
            values = _const_tuple(value)
            if values is not None:
                index.facts.setdefault(name, []).extend(values)

    # -- classes -------------------------------------------------------------

    def _index_class(self, node: ast.ClassDef) -> None:
        bases: List[str] = []
        is_protocol = False
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            resolved = self.canonical(dotted) or dotted
            bases.append(resolved)
            if resolved.rsplit(".", 1)[-1] == "Protocol":
                is_protocol = True
        info = ClassInfo(name=node.name, line=node.lineno, bases=bases,
                         is_protocol=is_protocol)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._index_function(
                    stmt, f"{node.name}.{stmt.name}", node.name)
                if stmt.name in MERGE_METHODS:
                    info.merge_methods.append(stmt.name)
        self.index.classes[node.name] = info

    # -- functions -----------------------------------------------------------

    def _index_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef",
                        qualname: str,
                        class_name: Optional[str]) -> FunctionInfo:
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs)]
        info = FunctionInfo(qualname=qualname, line=node.lineno,
                            col=node.col_offset, params=params)
        info.is_entrypoint = self._is_entrypoint(node)
        # parameter annotations participate in receiver-type inference
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            dotted = _annotation_dotted(arg.annotation)
            if dotted is not None:
                resolved = self.canonical(dotted) or dotted
                info.local_binds[arg.arg] = resolved
        self._scan_body(node.body, info, params=set(params),
                        local_binds=info.local_binds)
        return info

    def _is_entrypoint(self,
                       node: "ast.FunctionDef | ast.AsyncFunctionDef"
                       ) -> bool:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            dotted = dotted_name(target)
            if dotted is None:
                continue
            if (self.canonical(dotted) or dotted) == _ENTRYPOINT_DECORATOR:
                return True
            if dotted.rsplit(".", 1)[-1] == "worker_entrypoint":
                return True
        return False

    def _scan_body(self, body: Sequence[ast.stmt], info: FunctionInfo,
                   params: Set[str], local_binds: Dict[str, str]) -> None:
        """One pass over a body: bindings, calls, clock reads."""
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    self._classify_binding(node.targets[0].id, node.value,
                                           local_binds)
                elif isinstance(node, ast.Call):
                    self._index_call(node, info, params, local_binds)
                    self._index_ambient_call(node, info)

    def _classify_binding(self, name: str, value: ast.expr,
                          local_binds: Dict[str, str]) -> None:
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                resolved = self.canonical(dotted) or dotted
                local_binds[name] = resolved

    def _index_call(self, node: ast.Call, info: FunctionInfo,
                    params: Set[str], local_binds: Dict[str, str]) -> None:
        text = dotted_name(node.func)
        recv_type: Optional[str] = None
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if isinstance(base, ast.Name):
                recv_type = local_binds.get(base.id)
            elif isinstance(base, ast.Call):
                # chained constructor: Cls(...).method()
                dotted = dotted_name(base.func)
                if dotted is not None:
                    recv_type = self.canonical(dotted) or dotted
        args: List[ArgInfo] = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            args.append(self._arg_info(arg, position, None, params))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            args.append(self._arg_info(keyword.value, None, keyword.arg,
                                       params))
        info.calls.append(CallSite(line=node.lineno, col=node.col_offset,
                                   text=text, recv_type=recv_type, args=args))

    def _arg_info(self, expr: ast.expr, pos: Optional[int],
                  kw: Optional[str], params: Set[str]) -> ArgInfo:
        inner = sorted({n.id for n in ast.walk(expr)
                        if isinstance(n, ast.Name) and n.id in params})
        const = repr(expr.value) if isinstance(expr, ast.Constant) else None
        return ArgInfo(pos, kw, const, inner)

    def _index_ambient_call(self, node: ast.Call,
                            info: FunctionInfo) -> None:
        canonical = self.import_map.canonical(node.func)
        if canonical in _CLOCK_SOURCES:
            info.ambient.append(AmbientUse(node.lineno, node.col_offset,
                                           canonical))
        elif canonical == "random.Random":
            self._index_rng_seed(node, info)

    def _index_rng_seed(self, node: ast.Call, info: FunctionInfo) -> None:
        """Parameters whose value reaches this ``random.Random`` seed."""
        seed_exprs: List[ast.expr] = list(node.args)
        seed_exprs.extend(k.value for k in node.keywords)
        for expr in seed_exprs:
            for name in ast.walk(expr):
                if isinstance(name, ast.Name) and name.id in info.params \
                        and name.id not in info.rng_seed_params:
                    info.rng_seed_params.append(name.id)


def index_source(source: str, path: str) -> ModuleIndex:
    """Index one Python source string (raises ``SyntaxError`` if broken)."""
    return _FileIndexer(path, ast.parse(source, filename=path)).build()


# ---------------------------------------------------------------------------
# The linked project.


@dataclass
class Resolution:
    """One resolved call edge: target function key plus binding shape."""

    target: str  # "module:qualname"
    bound: bool  # receiver-bound call (self param consumed by binding)


class ProjectIndex:
    """All module indexes, linked into symbol tables and a call graph."""

    def __init__(self, modules: Sequence[ModuleIndex],
                 runtime_facts: Optional[Dict[str, List[str]]] = None
                 ) -> None:
        #: posix path -> index, iteration order sorted for determinism
        self.modules: Dict[str, ModuleIndex] = {
            m.path: m for m in sorted(modules, key=lambda m: m.path)}
        self.by_name: Dict[str, ModuleIndex] = {}
        for module in self.modules.values():
            self.by_name.setdefault(module.module, module)
        #: "module:Class" -> (owning index, class info)
        self.classes: Dict[str, Tuple[ModuleIndex, ClassInfo]] = {}
        #: "module:qualname" -> (owning index, function info)
        self.functions: Dict[str, Tuple[ModuleIndex, FunctionInfo]] = {}
        for module in self.modules.values():
            for name, cls in module.classes.items():
                self.classes[f"{module.module}:{name}"] = (module, cls)
                for mname, method in cls.methods.items():
                    self.functions[f"{module.module}:{name}.{mname}"] = \
                        (module, method)
            for name, fn in module.functions.items():
                self.functions[f"{module.module}:{name}"] = (module, fn)
        self.facts: Dict[str, List[str]] = {}
        for module in self.modules.values():
            for fact, values in sorted(module.facts.items()):
                self.facts.setdefault(fact, []).extend(values)
        for fact, values in sorted((runtime_facts or {}).items()):
            self.facts.setdefault(fact, []).extend(values)
        self.builder_registry: Dict[str, str] = {}
        for module in self.modules.values():
            self.builder_registry.update(module.builder_registry)
        self._method_index: Dict[str, List[str]] = {}
        for key, (_, cls) in sorted(self.classes.items()):
            if cls.is_protocol:
                continue
            for mname in sorted(cls.methods):
                self._method_index.setdefault(mname, []).append(
                    f"{key}.{mname}")
        self._edges: Optional[Dict[str, List[Tuple[Resolution,
                                                   CallSite]]]] = None
        self._constructed: Optional[Dict[str, List[Tuple[str,
                                                         CallSite]]]] = None

    # -- symbol resolution ---------------------------------------------------

    def resolve_absolute(self, dotted: str) -> Optional[str]:
        """``a.b.c.f`` -> a project symbol key, by longest module prefix."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            index = self.by_name.get(module)
            if index is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in index.classes:
                if len(rest) == 1:
                    return f"{module}:{head}"
                if len(rest) == 2 and rest[1] in index.classes[head].methods:
                    return f"{module}:{head}.{rest[1]}"
                return None
            if len(rest) == 1 and head in index.functions:
                return f"{module}:{head}"
            return None
        return None

    def _canonicalize(self, module: ModuleIndex,
                      dotted: str) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            if head in module.classes or head in module.functions:
                absolute = f"{module.module}.{dotted}"
                return self.resolve_absolute(absolute)
            return None
        return self.resolve_absolute(
            target.replace(":", ".") + (f".{rest}" if rest else ""))

    def lookup_method(self, class_key: str,
                      method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking project-local bases."""
        seen: Set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            entry = self.classes.get(key)
            if entry is None:
                continue
            index, cls = entry
            if method in cls.methods:
                return f"{key}.{method}"
            for base in cls.bases:
                resolved = self._canonicalize(index, base) \
                    or self.resolve_absolute(base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def resolve_call(self, module: ModuleIndex, fn: FunctionInfo,
                     site: CallSite) -> Tuple[List[Resolution], List[str]]:
        """(call edges, classes constructed) for one call site."""
        edges: List[Resolution] = []
        constructed: List[str] = []
        method = site.method
        if site.text is not None:
            head = site.text.split(".", 1)[0]
            if head in ("self", "cls") and "." in fn.qualname:
                class_key = f"{module.module}:{fn.qualname.split('.')[0]}"
                if method is not None:
                    target = self.lookup_method(class_key, method)
                    if target is not None:
                        edges.append(Resolution(target, bound=True))
                return edges, constructed
            resolved = self._canonicalize(module, site.text)
            if resolved is not None:
                if resolved in self.classes:
                    constructed.append(resolved)
                    init = self.lookup_method(resolved, "__init__")
                    if init is not None:
                        edges.append(Resolution(init, bound=True))
                elif resolved in self.functions:
                    # "Class.method" resolves here too; treat a dotted
                    # text with a resolved class prefix as bound.
                    edges.append(Resolution(
                        resolved, bound="." in resolved.split(":", 1)[1]))
                return edges, constructed
        if method is not None and site.recv_type is not None:
            class_key = self.resolve_absolute(site.recv_type) \
                or self._canonicalize(module, site.recv_type)
            if class_key is not None and class_key in self.classes:
                _, cls = self.classes[class_key]
                if cls.is_protocol:
                    for target in self._method_index.get(method, []):
                        edges.append(Resolution(target, bound=True))
                else:
                    target = self.lookup_method(class_key, method)
                    if target is not None:
                        edges.append(Resolution(target, bound=True))
        return edges, constructed

    # -- the call graph ------------------------------------------------------

    def _link(self) -> None:
        if self._edges is not None:
            return
        self._edges = {}
        self._constructed = {}
        for key in sorted(self.functions):
            module, fn = self.functions[key]
            edge_list: List[Tuple[Resolution, CallSite]] = []
            built: List[Tuple[str, CallSite]] = []
            for site in fn.calls:
                edges, constructed = self.resolve_call(module, fn, site)
                edge_list.extend((edge, site) for edge in edges)
                built.extend((cls, site) for cls in constructed)
            self._edges[key] = edge_list
            self._constructed[key] = built

    def edges(self) -> Dict[str, List[Tuple[Resolution, CallSite]]]:
        self._link()
        assert self._edges is not None
        return self._edges

    def constructed(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        self._link()
        assert self._constructed is not None
        return self._constructed

    def module_of(self, fn_key: str) -> ModuleIndex:
        return self.functions[fn_key][0]

    def is_obs_path(self, path: str) -> bool:
        return "/obs/" in path or path.endswith("/obs.py")

    # -- worker entrypoints and reachability ---------------------------------

    def worker_seeds(self) -> List[str]:
        """Function keys the worker-reachability closure starts from.

        Read from the introspection hooks, never hard-coded names:
        ``@worker_entrypoint`` decorations, every method of every class
        the builder/spec registry points at, and the explicit
        ``STATICCHECK_WORKER_SEEDS`` declarations (``module:Qual.name``).
        """
        seeds: Set[str] = set()
        for key in sorted(self.functions):
            _, fn = self.functions[key]
            if fn.is_entrypoint:
                seeds.add(key)
        builder_paths = set(self.builder_registry.values())
        builder_paths.update(self.facts.get("BUILDER_REGISTRY", []))
        for class_key in sorted(builder_paths):
            entry = self.classes.get(class_key)
            if entry is None:
                continue
            _, cls = entry
            for mname in sorted(cls.methods):
                seeds.add(f"{class_key}.{mname}")
        for declared in sorted(self.facts.get(
                "STATICCHECK_WORKER_SEEDS", [])):
            if declared in self.functions:
                seeds.add(declared)
        return sorted(seeds)

    def worker_reachable(self) -> Tuple[Set[str], Dict[str, str]]:
        """(reachable function keys, first-reach predecessor map).

        Deterministic BFS in sorted order from :meth:`worker_seeds`.
        Traversal never enters ``repro.obs`` modules: the live plane is
        out-of-band by contract and audited by its own rules.
        """
        edges = self.edges()
        parents: Dict[str, str] = {}
        reachable: Set[str] = set()
        queue = list(self.worker_seeds())
        reachable.update(queue)
        while queue:
            current = queue.pop(0)
            neighbors: Set[str] = set()
            for resolution, _ in edges.get(current, []):
                neighbors.add(resolution.target)
            for target in sorted(neighbors):
                if target in reachable:
                    continue
                if self.is_obs_path(self.module_of(target).path):
                    continue
                reachable.add(target)
                parents[target] = current
                queue.append(target)
        return reachable, parents

    def chain_to(self, fn_key: str, parents: Dict[str, str],
                 limit: int = 6) -> str:
        """Render the entrypoint -> ... -> fn chain for a message."""
        chain = [fn_key]
        while chain[-1] in parents and len(chain) < limit:
            chain.append(parents[chain[-1]])
        return " <- ".join(part.split(":", 1)[1] for part in chain)


# ---------------------------------------------------------------------------
# Runtime introspection of the engine's declared hooks.


def runtime_engine_facts() -> Dict[str, List[str]]:
    """Facts imported from the engine's own declarations.

    The analyzer reads the engine's worker seeds and the builder
    registry instead of hard-coding the names; projects under analysis
    that cannot import the engine (pure fixtures) simply contribute
    their own ``STATICCHECK_WORKER_SEEDS`` declarations.
    """
    from ..engine import pool as engine_pool
    from ..engine import sharding as engine_sharding
    return {
        "STATICCHECK_WORKER_SEEDS": [*engine_pool.WORKER_SEEDS,
                                     *engine_pool.WORKER_ENTRYPOINTS],
        "BUILDER_REGISTRY": sorted(
            path for _, path in engine_sharding.registered_builders()),
    }


# ---------------------------------------------------------------------------
# The driver.


def iter_lintable_files(paths: Sequence["str | Path"],
                        config: Config) -> List[Path]:
    """Expand ``paths``: directories walk to ``*.py``, files pass through.

    Non-Python files are only linted when named explicitly (or via
    ``--prom``): directory walks stick to Python sources, so a reports
    directory inside a lint root never drags artifacts into the run.
    """
    out: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: List[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if config.is_excluded(candidate.as_posix()):
                continue
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def lint_paths(paths: Sequence["str | Path"],
               config: Optional[Config] = None,
               rule_ids: Optional[Sequence[str]] = None
               ) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns (sorted violations, files checked).

    One whole-program pass: each Python file is read and parsed once,
    the AST rules run on it and it is indexed; the RS2xx rules run over
    the project linked from those indexes; then each file's suppression
    table is settled once against both kinds of finding, so one
    ``disable=`` comment can cover a per-file and an interprocedural
    finding on its line and an unused RS2xx suppression is RS000.
    ``rule_ids`` restricts the run; it composes with
    ``config.select``/``config.ignore``.
    """
    config = config or Config()
    active = _selected_ids(config, rule_ids)
    files = iter_lintable_files(paths, config)
    violations: List[Violation] = []
    analyses: List[FileAnalysis] = []
    for path in files:
        if path.suffix != ".py":
            for rule in file_rules():
                if rule.id in active and rule.applies(path):
                    violations.extend(rule.check_file(path, config))
            continue
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            violations.append(Violation(str(path), 1, 0, SYNTAX_ID,
                                        SYNTAX_NAME,
                                        f"cannot read file: {exc}"))
            continue
        analyses.append(analyze_source(source, str(path), config, rule_ids))
    project = ProjectIndex(
        [_FileIndexer(analysis.path, analysis.tree).build()
         for analysis in analyses if analysis.tree is not None],
        runtime_facts=runtime_engine_facts())
    found: Dict[str, List[Violation]] = {}
    for rule in graph_rules():
        if rule.id in active:
            for violation in rule.check_project(project, config):
                found.setdefault(violation.path, []).append(violation)
    for analysis in analyses:
        violations.extend(settle_file(analysis, active,
                                      found.get(analysis.path, ())))
    return sorted(violations), len(files)


