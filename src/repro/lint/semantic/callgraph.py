"""Project call graph over module-level functions and methods.

Nodes are :class:`~.project.FunctionInfo` qualnames plus one pseudo-node
per module (``module.<module>``) for import-time top-level code.  Edges
come from syntactic call sites, resolved with the precision the project
model affords:

* direct calls through imports (``from m import f; f()``,
  ``m.sub.f()``), including relative imports and package re-exports;
* constructor calls (edge to ``Cls.__init__`` when defined);
* ``self.m()`` / ``cls.m()`` through the owning class and its
  project-resolvable bases;
* ``self.attr.m()`` where ``__init__`` assigned ``self.attr = Cls(...)``;
* ``local.m()`` where the local is consistently assigned one project
  class (flow-insensitive; ambiguous locals resolve to nothing);
* calls to functions nested in the current function.

Everything else lands in :attr:`CallGraph.unresolved` — the soundness
gap is recorded, never silently dropped, so rules (and ``--format
json`` consumers) can see exactly what the analysis did not model.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    attribute_chain,
)

MODULE_NODE_SUFFIX = ".<module>"

#: builtin callables we never try to resolve (keeps `unresolved` signal)
_BUILTIN_NAMES = frozenset(
    (
        "abs", "all", "any", "bool", "bytes", "callable", "chr", "dict",
        "dir", "divmod", "enumerate", "filter", "float", "format",
        "frozenset", "getattr", "hasattr", "hash", "hex", "id", "int",
        "isinstance", "issubclass", "iter", "len", "list", "map", "max",
        "min", "next", "object", "open", "ord", "pow", "print", "range",
        "repr", "reversed", "round", "set", "setattr", "slice", "sorted",
        "str", "sum", "super", "tuple", "type", "vars", "zip",
        "Exception", "ValueError", "TypeError", "KeyError", "RuntimeError",
        "NotImplementedError", "OSError", "IOError", "StopIteration",
        "AttributeError", "IndexError", "FileNotFoundError",
    )
)


@dataclass(frozen=True)
class CallSite:
    """One resolved project-internal call."""

    caller: str
    callee: str
    lineno: int
    col: int


@dataclass(frozen=True)
class UnresolvedCall:
    """One call the graph could not attribute to a project function."""

    caller: str
    target: str
    lineno: int


@dataclass
class FunctionScope:
    """Per-function context the resolver needs."""

    info: FunctionInfo
    module: ModuleInfo
    cls: Optional[ClassInfo]
    #: local variable -> project class qualname (flow-insensitive)
    var_types: Dict[str, str] = field(default_factory=dict)
    #: nested function name -> qualname
    nested: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Call edges between project functions, with explicit gaps."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        #: caller qualname -> call sites out of it
        self.edges: Dict[str, List[CallSite]] = {}
        #: callee qualname -> caller qualnames
        self.callers: Dict[str, Set[str]] = {}
        self.unresolved: List[UnresolvedCall] = []
        #: qualname -> FunctionInfo for every node (incl. nested/module)
        self.nodes: Dict[str, FunctionInfo] = {}
        #: qualname -> the resolution scope used when scanning it (kept
        #: so the dataflow pass resolves calls identically to the graph)
        self.scopes: Dict[str, FunctionScope] = {}

    @classmethod
    def build(cls, project: ProjectModel) -> "CallGraph":
        graph = cls(project)
        for module in project.modules.values():
            graph._add_module_node(module)
        for fn in list(project.functions.values()):
            graph._add_function(fn)
        return graph

    # ------------------------------------------------------------------

    def _add_module_node(self, module: ModuleInfo) -> None:
        """Top-level statements run at import time; model them as a node."""
        qualname = module.name + MODULE_NODE_SUFFIX
        toplevel = ast.Module(
            body=[
                stmt
                for stmt in module.tree.body
                if not isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ],
            type_ignores=[],
        )
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            name="<module>",
            node=toplevel,
            path=module.path,
        )
        self.nodes[qualname] = info
        scope = FunctionScope(info=info, module=module, cls=None)
        self.scopes[qualname] = scope
        self._scan_calls(scope, toplevel.body)

    def _add_function(self, fn: FunctionInfo) -> None:
        module = self.project.modules.get(fn.module)
        if module is None:
            return
        cls = self.project.classes.get(fn.cls) if fn.cls else None
        self.nodes[fn.qualname] = fn
        scope = FunctionScope(info=fn, module=module, cls=cls)
        self.scopes[fn.qualname] = scope
        self._infer_locals(scope)
        self._scan_calls(scope, fn.node.body)  # type: ignore[attr-defined]

    def _infer_locals(self, scope: FunctionScope) -> None:
        ambiguous: Set[str] = set()
        for node in ast.walk(scope.info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not scope.info.node:
                    scope.nested.setdefault(
                        node.name, f"{scope.info.qualname}.{node.name}"
                    )
                    # Register nested defs as graph nodes of their own.
                    qualname = f"{scope.info.qualname}.{node.name}"
                    if qualname not in self.project.functions:
                        nested_info = FunctionInfo(
                            qualname=qualname,
                            module=scope.info.module,
                            name=node.name,
                            node=node,
                            path=scope.info.path,
                            cls=scope.info.cls,
                        )
                        self.project.functions[qualname] = nested_info
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                target_cls = self.project.resolve_call_to_class(
                    scope.module, node.value
                )
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target_cls is None:
                        ambiguous.add(target.id)
                    elif (
                        target.id in scope.var_types
                        and scope.var_types[target.id] != target_cls.qualname
                    ):
                        ambiguous.add(target.id)
                    else:
                        scope.var_types[target.id] = target_cls.qualname
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        ambiguous.add(target.id)
        # Annotated parameters: `def f(eng: Engine)` pins the type.
        args = getattr(scope.info.node, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is None:
                    continue
                chain = attribute_chain(arg.annotation)
                if chain is None:
                    continue
                resolved = self.project.resolve_chain(scope.module, chain)
                if resolved is not None and resolved in self.project.classes:
                    scope.var_types[arg.arg] = resolved
                    ambiguous.discard(arg.arg)
        for name in ambiguous:
            scope.var_types.pop(name, None)

    def _scan_calls(self, scope: FunctionScope, body: List[ast.stmt]) -> None:
        # Explicit stack that does not descend into nested function
        # definitions: their bodies get their own graph node below, so
        # descending here would double-attribute every nested call.
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                self._record_call(scope, node)
            stack.extend(ast.iter_child_nodes(node))
        # Nested functions: scan each under its own qualname.
        for name, qualname in scope.nested.items():
            fn = self.project.functions.get(qualname)
            if fn is not None and qualname not in self.nodes:
                self.nodes[qualname] = fn
                inner = FunctionScope(
                    info=fn, module=scope.module, cls=scope.cls
                )
                inner.var_types = dict(scope.var_types)
                self.scopes[qualname] = inner
                self._infer_locals(inner)
                self._scan_calls(
                    inner, fn.node.body  # type: ignore[attr-defined]
                )

    # ------------------------------------------------------------------

    def resolve_call(
        self, scope: FunctionScope, call: ast.Call
    ) -> Optional[str]:
        """Project function qualname a call dispatches to, or None."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in scope.nested:
                return scope.nested[name]
            resolved = self.project.resolve_chain(scope.module, [name])
            if resolved is None:
                return None
            return self._as_function(resolved)
        chain = attribute_chain(func)
        if chain is None:
            return None
        root = chain[0]
        if root in ("self", "cls") and scope.cls is not None:
            if len(chain) == 2:
                method = self.project.class_method(scope.cls, chain[1])
                return method.qualname if method else None
            if len(chain) == 3:
                attr_cls_name = scope.cls.attr_types.get(chain[1])
                if attr_cls_name is not None:
                    attr_cls = self.project.classes.get(attr_cls_name)
                    if attr_cls is not None:
                        method = self.project.class_method(attr_cls, chain[2])
                        return method.qualname if method else None
            return None
        if root in scope.var_types and len(chain) == 2:
            cls = self.project.classes.get(scope.var_types[root])
            if cls is not None:
                method = self.project.class_method(cls, chain[1])
                return method.qualname if method else None
            return None
        resolved = self.project.resolve_chain(scope.module, chain)
        if resolved is None:
            return None
        return self._as_function(resolved)

    def _as_function(self, resolved: str) -> Optional[str]:
        if resolved in self.project.functions:
            return resolved
        if resolved in self.project.classes:
            init = f"{resolved}.__init__"
            if init in self.project.functions:
                return init
            return None
        return None

    def _record_call(self, scope: FunctionScope, call: ast.Call) -> None:
        callee = self.resolve_call(scope, call)
        if callee is not None:
            site = CallSite(
                caller=scope.info.qualname,
                callee=callee,
                lineno=getattr(call, "lineno", 1),
                col=getattr(call, "col_offset", 0),
            )
            self.edges.setdefault(scope.info.qualname, []).append(site)
            self.callers.setdefault(callee, set()).add(scope.info.qualname)
            return
        target = self._external_target(scope, call)
        if target is None:
            return
        self.unresolved.append(
            UnresolvedCall(
                caller=scope.info.qualname,
                target=target,
                lineno=getattr(call, "lineno", 1),
            )
        )

    def _external_target(
        self, scope: FunctionScope, call: ast.Call
    ) -> Optional[str]:
        """Printable target for an unresolved call; None for known externals.

        A call through an import binding that does not land on a project
        symbol is external (stdlib/third-party) — a *known* non-project
        target, not a soundness gap — so it stays out of ``unresolved``.
        """
        chain = attribute_chain(call.func)
        if chain is None:
            try:
                return ast.unparse(call.func)[:60]
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                return "<expr>"
        if chain[0] in _BUILTIN_NAMES and len(chain) == 1:
            return None
        expanded = scope.module.expand(chain)
        if expanded is not None:
            root = expanded.split(".")[0]
            if root not in _project_roots(self.project):
                return None  # external library call
        return ".".join(chain)

    # ------------------------------------------------------------------

    def call_sites(self, caller: str) -> List[CallSite]:
        return self.edges.get(caller, [])

    def callers_of(self, callee: str) -> Set[str]:
        return self.callers.get(callee, set())


def _project_roots(project: ProjectModel) -> Set[str]:
    return {name.split(".")[0] for name in project.modules}
