"""Project-wide call graph for interprocedural lint rules.

Built once per lint run from every parsed :class:`ModuleContext`, the
graph resolves:

* module-level functions (directly and through ``import``/``from``
  aliases, including relative imports),
* methods, via receiver-type inference from parameter/attribute
  annotations and ``self.x = KnownClass(...)`` constructor assignments
  (inheritance-aware lookup),
* indirect dispatch through ``functools.partial`` and the executor
  wrappers ``run_in_executor``/``asyncio.to_thread`` (plus the repo's
  ``Tenant.run_write``/``PlanningApp._read``/``off_loop`` launder
  helpers) — edges crossing an executor boundary are marked
  ``via_executor`` so RL009 knows the callee runs off the event loop,
* ``@property`` reads (an attribute access becomes a call edge to the
  getter).

Alongside edges it records, per function, the threading-lock
acquisitions (``with self._lock:`` / ``lock.acquire()``), the
``guarded-by:``/``loop-confined`` attribute accesses with the lock set
held at each site, and per class the lock attributes and annotation
tables.  :mod:`repro.lint.interproc` turns this into effect summaries.

Known limits (documented in ``docs/linting.md``): calls through builtin
dunder dispatch (``len(x)`` → ``__len__``), locks aliased into local
variables, and receivers whose type inference fails resolve to opaque
externals and are not followed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from repro.lint.annotations import GuardDeclarations, declarations_for_span
from repro.lint.context import ModuleContext, dotted_name

EXECUTOR_WRAPPERS = frozenset(
    {"run_in_executor", "to_thread", "run_write", "_read", "off_loop"}
)
_LOCK_FACTORIES = {
    "threading.Lock": False,  # value: reentrant?
    "threading.RLock": True,
}
_PROPERTY_DECORATORS = {"property", "cached_property"}


@dataclass(frozen=True)
class LockSite:
    """One lock object, identified by its declaring attribute."""

    identity: str  # "module:Class.attr" or "module:NAME"
    attr: str | None  # bare attribute name for instance locks
    path: str
    line: int
    reentrant: bool


@dataclass(frozen=True)
class Acquisition:
    """One lock-acquisition site (``with lock:`` or ``lock.acquire()``)."""

    site: LockSite  # the lock's declaration
    line: int  # where this acquisition happens
    col: int
    held: tuple["Acquisition", ...]  # locks already held here


@dataclass(frozen=True)
class CallSite:
    """One outgoing call (or callable reference) inside a function."""

    callee: str | None  # resolved function key, if any
    external: str | None  # dotted name for unresolved targets
    line: int
    col: int
    via_executor: bool
    held: tuple[Acquisition, ...]


@dataclass(frozen=True)
class GuardAccess:
    """An access to a ``guarded-by:`` attribute, with held locks."""

    owner: str  # class key owning the attribute
    attr: str
    needed: str  # lock identity that must be held
    line: int
    col: int
    held: tuple[str, ...]  # lock identities held at the access
    cross_class: bool


@dataclass(frozen=True)
class ConfinedAccess:
    """An access to a ``loop-confined`` attribute."""

    owner: str
    attr: str
    line: int
    col: int


@dataclass
class FunctionInfo:
    """Summary-relevant facts about one function or method."""

    key: str  # "module:Qual.name"
    module: str
    path: str
    qualname: str
    name: str
    cls: str | None  # enclosing class key
    is_async: bool
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)
    returns: str | None = None  # resolved return-annotation class key
    calls: list[CallSite] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    guard_accesses: list[GuardAccess] = field(default_factory=list)
    confined_accesses: list[ConfinedAccess] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Per-class method table, attribute types, and annotations."""

    key: str  # "module:Qual"
    module: str
    path: str
    name: str
    line: int
    node: ast.ClassDef = field(repr=False)
    methods: dict[str, str] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    lock_attrs: dict[str, LockSite] = field(default_factory=dict)
    declarations: GuardDeclarations = field(
        default_factory=lambda: GuardDeclarations({}, {})
    )
    bases: list[str] = field(default_factory=list)


@dataclass
class _ModuleInfo:
    context: ModuleContext
    imports: dict[str, str] = field(default_factory=dict)
    class_keys: dict[str, str] = field(default_factory=dict)
    function_keys: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The resolved project call graph plus lock/annotation tables."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.module_locks: dict[str, LockSite] = {}
        self._modules: dict[str, _ModuleInfo] = {}
        self._modules_by_length: list[str] = []

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        contexts: list[ModuleContext],
        *,
        executor_wrappers: frozenset[str] = EXECUTOR_WRAPPERS,
    ) -> "CallGraph":
        graph = cls()
        for context in contexts:
            graph._modules[context.module] = _ModuleInfo(context=context)
        graph._modules_by_length = sorted(
            graph._modules, key=len, reverse=True
        )
        for mod in graph._modules.values():
            graph._collect_defs(mod)
        for mod in graph._modules.values():
            graph._collect_imports(mod)
        for mod in graph._modules.values():
            graph._resolve_class_tables(mod)
        for mod in graph._modules.values():
            graph._walk_bodies(mod, executor_wrappers)
        return graph

    def _collect_defs(self, mod: _ModuleInfo) -> None:
        context = mod.context
        module = context.module

        def walk(
            body: list[ast.stmt],
            prefix: str,
            cls_key: str | None,
            in_class_body: bool,
        ) -> None:
            for node in body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{prefix}{node.name}"
                    key = f"{module}:{qual}"
                    self.functions[key] = FunctionInfo(
                        key=key,
                        module=module,
                        path=context.path,
                        qualname=qual,
                        name=node.name,
                        cls=cls_key,
                        is_async=isinstance(node, ast.AsyncFunctionDef),
                        line=node.lineno,
                        node=node,
                    )
                    mod.function_keys[qual] = key
                    if in_class_body and cls_key is not None:
                        info = self.classes[cls_key]
                        info.methods[node.name] = key
                        if _is_property(node):
                            info.properties[node.name] = key
                    walk(node.body, qual + ".", cls_key, False)
                elif isinstance(node, ast.ClassDef):
                    qual = f"{prefix}{node.name}"
                    key = f"{module}:{qual}"
                    self.classes[key] = ClassInfo(
                        key=key,
                        module=module,
                        path=context.path,
                        name=node.name,
                        line=node.lineno,
                        node=node,
                    )
                    mod.class_keys[qual] = key
                    walk(node.body, qual + ".", key, True)

        walk(context.tree.body, "", None, False)
        for node in context.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    reentrant = self._lock_factory(mod, node.value)
                    if reentrant is not None:
                        identity = f"{module}:{target.id}"
                        self.module_locks[identity] = LockSite(
                            identity=identity,
                            attr=None,
                            path=context.path,
                            line=node.lineno,
                            reentrant=reentrant,
                        )

    def _collect_imports(self, mod: _ModuleInfo) -> None:
        module = mod.context.module
        is_package = mod.context.path.endswith("__init__.py")
        for node in ast.walk(mod.context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
                    else:
                        mod.imports[alias.name.split(".")[0]] = (
                            alias.name.split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = module.split(".")
                    drop = node.level - (1 if is_package else 0)
                    base_parts = parts[: len(parts) - drop]
                    base = ".".join(base_parts)
                    source = (
                        f"{base}.{node.module}" if node.module else base
                    )
                else:
                    source = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{source}.{alias.name}"

    def _lock_factory(
        self, mod: _ModuleInfo, value: ast.expr
    ) -> bool | None:
        """``True``/``False`` (reentrancy) if ``value`` constructs a lock."""
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        kind, fq = self._resolve_fq(mod, dotted)
        if kind == "external" and fq in _LOCK_FACTORIES:
            return _LOCK_FACTORIES[fq]
        return None

    def _resolve_class_tables(self, mod: _ModuleInfo) -> None:
        module = mod.context.module
        for key, info in self.classes.items():
            if info.module != module:
                continue
            end = info.node.end_lineno or info.node.lineno
            info.declarations = declarations_for_span(
                mod.context, info.node.lineno, end
            )
            for base in info.node.bases:
                dotted = dotted_name(base)
                if dotted is None:
                    continue
                kind, target = self._resolve_fq(mod, dotted)
                if kind == "class":
                    info.bases.append(target)
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    resolved = self._resolve_annotation(
                        mod, stmt.annotation
                    )
                    if resolved:
                        info.attr_types[stmt.target.id] = resolved
            for method_key in list(info.methods.values()):
                fn = self.functions[method_key]
                params = self._param_types(mod, fn.node)
                for node in _walk_shallow(fn.node):
                    self._record_attr_assignment(mod, info, params, node)
        for fn in self.functions.values():
            if fn.module != module or fn.node.returns is None:
                continue
            fn.returns = self._resolve_annotation(mod, fn.node.returns)

    def _record_attr_assignment(
        self,
        mod: _ModuleInfo,
        info: ClassInfo,
        params: dict[str, str],
        node: ast.AST,
    ) -> None:
        target: ast.expr | None = None
        annotation: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, annotation, value = node.target, node.annotation, node.value
        else:
            return
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        attr = target.attr
        if value is not None:
            reentrant = self._lock_factory(mod, value)
            if reentrant is not None and attr not in info.lock_attrs:
                identity = f"{info.key}.{attr}"
                info.lock_attrs[attr] = LockSite(
                    identity=identity,
                    attr=attr,
                    path=info.path,
                    line=node.lineno,
                    reentrant=reentrant,
                )
                return
        resolved: str | None = None
        if annotation is not None:
            resolved = self._resolve_annotation(mod, annotation)
        if resolved is None and value is not None:
            resolved = self._infer_value_type(mod, params, value)
        if resolved and attr not in info.attr_types:
            info.attr_types[attr] = resolved

    def _param_types(
        self,
        mod: _ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, str]:
        types: dict[str, str] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None:
                continue
            resolved = self._resolve_annotation(mod, arg.annotation)
            if resolved:
                types[arg.arg] = resolved
        return types

    def _infer_value_type(
        self, mod: _ModuleInfo, known: dict[str, str], value: ast.expr
    ) -> str | None:
        if isinstance(value, ast.Name):
            return known.get(value.id)
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is not None:
                kind, target = self._resolve_fq(mod, dotted)
                if kind == "class":
                    return target
                if kind == "func":
                    return self.functions[target].returns
        return None

    def _resolve_annotation(
        self, mod: _ModuleInfo, annotation: ast.expr
    ) -> str | None:
        """Resolve a type annotation to a project class key, if any."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(
                    annotation.value, mode="eval"
                ).body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            left = self._resolve_annotation(mod, annotation.left)
            right = self._resolve_annotation(mod, annotation.right)
            if left and right and left != right:
                return None  # ambiguous union
            return left or right
        if isinstance(annotation, ast.Subscript):
            dotted = dotted_name(annotation.value)
            if dotted is not None and dotted.split(".")[-1] == "Optional":
                return self._resolve_annotation(mod, annotation.slice)
            return None  # container-of-X is not X
        dotted = dotted_name(annotation)
        if dotted is None or dotted == "None":
            return None
        kind, target = self._resolve_fq(mod, dotted)
        return target if kind == "class" else None

    def _resolve_fq(
        self, mod: _ModuleInfo, dotted: str
    ) -> tuple[str, str]:
        """Resolve a dotted name to ``(kind, target)``.

        Kinds: ``func``/``class`` (project entities, target is the key),
        ``module`` (a project module), ``external`` (anything else).
        """
        if dotted in mod.function_keys:
            return "func", mod.function_keys[dotted]
        if dotted in mod.class_keys:
            return "class", mod.class_keys[dotted]
        parts = dotted.split(".")
        head = parts[0]
        if head in mod.imports:
            fq = ".".join([mod.imports[head]] + parts[1:])
        else:
            fq = dotted
        for module in self._modules_by_length:
            if fq == module:
                return "module", module
            if fq.startswith(module + "."):
                rest = fq[len(module) + 1:]
                target_mod = self._modules[module]
                if rest in target_mod.function_keys:
                    return "func", target_mod.function_keys[rest]
                if rest in target_mod.class_keys:
                    return "class", target_mod.class_keys[rest]
                return "external", fq
        return "external", fq

    # -- inheritance-aware lookups ------------------------------------

    def _mro(self, class_key: str) -> list[ClassInfo]:
        seen: set[str] = set()
        order: list[ClassInfo] = []
        queue = [class_key]
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            order.append(info)
            queue.extend(info.bases)
        return order

    def resolve_method(self, class_key: str, name: str) -> str | None:
        for info in self._mro(class_key):
            if name in info.methods:
                return info.methods[name]
        return None

    def property_getter(self, class_key: str, name: str) -> str | None:
        for info in self._mro(class_key):
            if name in info.properties:
                return info.properties[name]
        return None

    def attr_type(self, class_key: str, attr: str) -> str | None:
        for info in self._mro(class_key):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def lock_attr(self, class_key: str, attr: str) -> LockSite | None:
        for info in self._mro(class_key):
            if attr in info.lock_attrs:
                return info.lock_attrs[attr]
        return None

    def guarded_decl(
        self, class_key: str, attr: str
    ) -> tuple[str, str] | None:
        """``(lock identity, owner class key)`` for a guarded attribute."""
        for info in self._mro(class_key):
            if attr in info.declarations.guarded:
                lock_attr = info.declarations.guarded[attr][0]
                return f"{info.key}.{lock_attr}", info.key
        return None

    def confined_decl(self, class_key: str, attr: str) -> str | None:
        for info in self._mro(class_key):
            if attr in info.declarations.loop_confined:
                return info.key
        return None

    # -- body analysis -------------------------------------------------

    def _walk_bodies(
        self, mod: _ModuleInfo, executor_wrappers: frozenset[str]
    ) -> None:
        module = mod.context.module
        for fn in self.functions.values():
            if fn.module != module:
                continue
            nested = {
                other.name: other.key
                for other in self.functions.values()
                if other.module == module
                and other.qualname == f"{fn.qualname}.{other.name}"
            }
            walker = _FunctionWalker(
                self, mod, fn, nested, executor_wrappers
            )
            for stmt in fn.node.body:
                walker.visit(stmt)

    # -- export --------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """The ``--callgraph-json`` artifact shape (stable, versioned)."""
        functions: dict[str, Any] = {}
        for key in sorted(self.functions):
            fn = self.functions[key]
            functions[key] = {
                "path": fn.path,
                "line": fn.line,
                "async": fn.is_async,
                "class": fn.cls,
                "calls": [
                    {
                        "callee": call.callee,
                        "external": call.external,
                        "line": call.line,
                        "via_executor": call.via_executor,
                    }
                    for call in fn.calls
                ],
                "acquires": sorted(
                    {acq.site.identity for acq in fn.acquisitions}
                ),
            }
        locks: dict[str, Any] = {}
        for site in self.iter_lock_sites():
            locks[site.identity] = {
                "path": site.path,
                "line": site.line,
                "reentrant": site.reentrant,
            }
        classes: dict[str, Any] = {}
        for key in sorted(self.classes):
            info = self.classes[key]
            classes[key] = {
                "path": info.path,
                "line": info.line,
                "bases": info.bases,
                "attr_types": dict(sorted(info.attr_types.items())),
                "guarded": {
                    attr: lock
                    for attr, (lock, _) in sorted(
                        info.declarations.guarded.items()
                    )
                },
                "loop_confined": sorted(
                    info.declarations.loop_confined
                ),
            }
        return {
            "version": 1,
            "modules": {
                name: info.context.path
                for name, info in sorted(self._modules.items())
            },
            "functions": functions,
            "classes": classes,
            "locks": locks,
        }

    def iter_lock_sites(self) -> list[LockSite]:
        sites = list(self.module_locks.values())
        for info in self.classes.values():
            sites.extend(info.lock_attrs.values())
        return sorted(sites, key=lambda site: site.identity)


class _FunctionWalker(ast.NodeVisitor):
    """Walk one function body, tracking held locks and executor hops."""

    def __init__(
        self,
        graph: CallGraph,
        mod: _ModuleInfo,
        fn: FunctionInfo,
        nested: dict[str, str],
        executor_wrappers: frozenset[str],
    ) -> None:
        self.graph = graph
        self.mod = mod
        self.fn = fn
        self.nested = nested
        self.executor_wrappers = executor_wrappers
        self.held: list[Acquisition] = []
        self.in_executor = False
        self.local_types = graph._param_types(mod, fn.node)
        for node in _walk_shallow(fn.node):
            self._seed_local_type(node)

    def _seed_local_type(self, node: ast.AST) -> None:
        target: ast.expr | None = None
        resolved: str | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            resolved = self._value_type(node.value)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            resolved = self.graph._resolve_annotation(
                self.mod, node.annotation
            )
        if (
            isinstance(target, ast.Name)
            and resolved
            and target.id not in self.local_types
        ):
            self.local_types[target.id] = resolved

    def _value_type(self, value: ast.expr) -> str | None:
        if isinstance(value, ast.Name):
            return self.local_types.get(value.id)
        if isinstance(value, ast.Attribute):
            return self._expr_type(value)
        return self.graph._infer_value_type(
            self.mod, self.local_types, value
        )

    # -- type/lock resolution -----------------------------------------

    def _expr_type(self, expr: ast.expr) -> str | None:
        """Class key of the value ``expr`` evaluates to, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.fn.cls
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value)
            if base is not None:
                return self.graph.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            resolved = self._resolve_callable(expr.func)
            if resolved is None:
                return None
            kind, target = resolved
            if kind == "class":
                return target
            if kind == "func":
                return self.graph.functions[target].returns
        return None

    def _resolve_callable(
        self, expr: ast.expr
    ) -> tuple[str, str] | None:
        """``(kind, target)`` for a callable expression, or ``None``."""
        if isinstance(expr, ast.Attribute):
            receiver = self._expr_type(expr.value)
            if receiver is not None:
                method = self.graph.resolve_method(receiver, expr.attr)
                if method is not None:
                    return "func", method
                return "external", f"?.{expr.attr}"
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        head = dotted.split(".")[0]
        if head in self.nested and "." not in dotted:
            return "func", self.nested[dotted]
        kind, target = self.graph._resolve_fq(self.mod, dotted)
        if kind == "module":
            return None
        return kind, target

    def _lock_site(self, expr: ast.expr) -> LockSite | None:
        """The lock acquired by ``with expr:``, if ``expr`` names one."""
        if isinstance(expr, ast.Attribute):
            receiver = self._expr_type(expr.value)
            if receiver is not None:
                return self.graph.lock_attr(receiver, expr.attr)
            return None
        if isinstance(expr, ast.Name):
            identity = f"{self.fn.module}:{expr.id}"
            return self.graph.module_locks.get(identity)
        return None

    # -- recording -----------------------------------------------------

    def _record_edge(
        self,
        node: ast.expr,
        *,
        callee: str | None = None,
        external: str | None = None,
        via_executor: bool | None = None,
    ) -> None:
        self.fn.calls.append(
            CallSite(
                callee=callee,
                external=external,
                line=node.lineno,
                col=node.col_offset,
                via_executor=(
                    self.in_executor
                    if via_executor is None
                    else via_executor
                ),
                held=tuple(self.held),
            )
        )

    def _record_callable(
        self, func: ast.expr, node: ast.expr, *, via: bool | None = None
    ) -> None:
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            site = self._lock_site(func.value)
            if site is not None:
                self.fn.acquisitions.append(
                    Acquisition(
                        site=site,
                        line=node.lineno,
                        col=node.col_offset,
                        held=tuple(self.held),
                    )
                )
                self._record_edge(
                    node,
                    external="threading.Lock.acquire",
                    via_executor=via,
                )
                return
        resolved = self._resolve_callable(func)
        if resolved is None:
            return
        kind, target = resolved
        if kind == "func":
            self._record_edge(node, callee=target, via_executor=via)
        elif kind == "class":
            init = self.graph.resolve_method(target, "__init__")
            if init is not None:
                self._record_edge(node, callee=init, via_executor=via)
        else:
            self._record_edge(node, external=target, via_executor=via)

    def _is_partial(self, func: ast.expr) -> bool:
        dotted = dotted_name(func)
        if dotted is None:
            return False
        kind, fq = self.graph._resolve_fq(self.mod, dotted)
        return kind == "external" and fq in (
            "functools.partial",
            "partial",
        )

    def _launder_arg(self, arg: ast.expr) -> None:
        """An argument handed to an executor wrapper: runs off-loop."""
        if isinstance(arg, ast.Lambda):
            previous = self.in_executor
            self.in_executor = True
            self.visit(arg.body)
            self.in_executor = previous
            return
        if isinstance(arg, (ast.Name, ast.Attribute)):
            self._record_callable(arg, arg, via=True)
            if isinstance(arg, ast.Attribute):
                self.visit(arg.value)
            return
        if isinstance(arg, ast.Call) and self._is_partial(arg.func):
            if arg.args:
                self._launder_arg(arg.args[0])
                for extra in arg.args[1:]:
                    self.visit(extra)
            for keyword in arg.keywords:
                self.visit(keyword.value)
            return
        self.visit(arg)

    # -- visitors ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs are their own FunctionInfo

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef
    ) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)  # inline: runs in the enclosing context

    def visit_With(self, node: ast.With) -> None:
        acquired: list[Acquisition] = []
        for item in node.items:
            site = self._lock_site(item.context_expr)
            if site is not None:
                acquisition = Acquisition(
                    site=site,
                    line=item.context_expr.lineno,
                    col=item.context_expr.col_offset,
                    held=tuple(self.held) + tuple(acquired),
                )
                self.fn.acquisitions.append(acquisition)
                acquired.append(acquisition)
            else:
                self.visit(item.context_expr)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self.held[-len(acquired):]

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        wrapper = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if wrapper in self.executor_wrappers:
            self._record_callable(func, node)
            if isinstance(func, ast.Attribute):
                self.visit(func.value)
            for arg in node.args:
                self._launder_arg(arg)
            for keyword in node.keywords:
                self._launder_arg(keyword.value)
            return
        if self._is_partial(func):
            if node.args:
                self._record_callable(node.args[0], node)
                for extra in node.args[1:]:
                    self.visit(extra)
            for keyword in node.keywords:
                self.visit(keyword.value)
            return
        self._record_callable(func, node)
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        owner: str | None = None
        is_self = isinstance(value, ast.Name) and value.id == "self"
        if is_self:
            owner = self.fn.cls
        else:
            owner = self._expr_type(value)
        if owner is not None:
            decl = self.graph.guarded_decl(owner, node.attr)
            if decl is not None:
                needed, owner_key = decl
                self.fn.guard_accesses.append(
                    GuardAccess(
                        owner=owner_key,
                        attr=node.attr,
                        needed=needed,
                        line=node.lineno,
                        col=node.col_offset,
                        held=tuple(
                            acq.site.identity for acq in self.held
                        ),
                        cross_class=not is_self,
                    )
                )
            confined_owner = self.graph.confined_decl(owner, node.attr)
            if confined_owner is not None:
                self.fn.confined_accesses.append(
                    ConfinedAccess(
                        owner=confined_owner,
                        attr=node.attr,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
            getter = self.graph.property_getter(owner, node.attr)
            if getter is not None:
                self._record_edge(node, callee=getter)
        self.visit(value)


def _is_property(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for decorator in node.decorator_list:
        dotted = dotted_name(decorator)
        if dotted is not None and dotted.split(".")[-1] in (
            _PROPERTY_DECORATORS
        ):
            return True
    return False


def _walk_shallow(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """All nodes in a function body, not descending into nested defs."""
    found: list[ast.AST] = []
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        found.append(current)
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            stack.append(child)
    return found


def dump_callgraph(
    paths: list[str] | None = None, *, config: Any = None
) -> dict[str, Any]:
    """Build the graph over a source tree and return its JSON shape."""
    from repro.lint.engine import collect_contexts

    contexts, _errors, _count = collect_contexts(paths, config=config)
    return CallGraph.build(contexts).to_json()
