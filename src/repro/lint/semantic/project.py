"""The project model: every lint target file, parsed once.

Both rule kinds run over one :class:`ProjectModel`.  The per-file rules
(SPB1xx-SPB6xx) see each :class:`ModuleInfo` through a
:class:`~..base.LintContext`; the whole-program rules (SPB7xx-SPB9xx)
reason over the cross-module structure the model exposes:

* every parsed file in :attr:`ProjectModel.files`, and every module
  keyed by its dotted name (derived from ``__init__.py`` package
  ancestry, exactly like :func:`~..base.module_name_for_path`, so
  fixture trees in tests scope like the real source tree);
* every top-level function, class, and method with a stable *qualname*
  (``repro.sim.engine.run``, ``repro.core.secpb.SecPB.accept``);
* per-module import bindings, including relative imports, with
  :meth:`ModuleInfo.dotted` as the one name resolver
  (``np.random.rand`` -> ``numpy.random.rand``) and one-level
  re-exports through package ``__init__`` files resolved lazily by
  :meth:`ProjectModel.lookup`;
* the project-internal import graph (which modules each module
  imports).

The model is deliberately *syntactic*: nothing is imported or executed,
so linting a broken tree can never run broken code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..base import iter_python_files, module_name_for_path, parse_suppressions

@dataclass
class FunctionInfo:
    """One function or method definition, addressable project-wide."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    path: str
    cls: Optional[str] = None  # owning class qualname for methods

    @property
    def params(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in args.posonlyargs + args.args]
        return names


@dataclass
class ClassInfo:
    """One class definition with its methods and resolved project bases."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    #: source-level base expressions, dotted where expressible
    base_exprs: List[str] = field(default_factory=list)
    #: method name -> FunctionInfo
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class qualname, inferred from ``self.x = Cls()``
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file plus everything resolution needs."""

    name: str
    path: str
    tree: ast.Module
    is_package: bool
    #: local name -> the dotted name it imports (``np`` -> ``numpy``,
    #: ``from .x import f`` -> ``pkg.x.f``); module or symbol is decided
    #: lazily by :meth:`ProjectModel.lookup`
    bindings: Dict[str, str] = field(default_factory=dict)
    #: names of module-level defs (functions, classes, assignments)
    toplevel: Set[str] = field(default_factory=set)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]

    def expand(self, chain: Sequence[str]) -> Optional[str]:
        """``chain`` as a dotted name, its root expanded through this
        module's top-level definitions and import bindings; None when
        the root is neither (a local, a parameter, a builtin)."""
        root = chain[0]
        if root in self.toplevel:
            target = f"{self.name}.{root}"
        elif root in self.bindings:
            target = self.bindings[root]
        else:
            return None
        return ".".join([target, *chain[1:]])

    def dotted(self, node: ast.AST) -> Optional[str]:
        """:meth:`expand` for a name or attribute-chain expression."""
        chain = attribute_chain(node)
        return None if chain is None else self.expand(chain)


def _relative_base(module: ModuleInfo, level: int) -> str:
    """The absolute package a ``from ...x import y`` resolves against."""
    base = module.package
    for _ in range(level - 1):
        base = base.rpartition(".")[0]
    return base


def _collect_bindings(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    module.bindings[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, node.level)
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            if not source:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.bindings[local] = f"{source}.{alias.name}"


def _base_expr_text(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        inner = _base_expr_text(node.value)
        return f"{inner}.{node.attr}" if inner else None
    return None


class ProjectModel:
    """The parsed project: modules, symbols, and the import graph."""

    def __init__(self) -> None:
        #: every parsed file, in lint order (per-file rules run on these)
        self.files: List[ModuleInfo] = []
        #: dotted name -> module; of two files with one name, the last
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: files that failed to parse: path -> the error
        self.parse_errors: Dict[str, SyntaxError] = {}
        #: module -> project modules it imports (directly)
        self.import_graph: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, paths: Sequence[Path]) -> "ProjectModel":
        project = cls()
        for file_path in iter_python_files(paths):
            project.add_file(file_path)
        project.finish()
        return project

    @classmethod
    def from_sources(
        cls, sources: Dict[str, Tuple[str, str]]
    ) -> "ProjectModel":
        """Build from in-memory sources: module name -> (path, source)."""
        project = cls()
        for name, (path, source) in sorted(sources.items()):
            project._add_source(name, path, source, is_package=False)
        project.finish()
        return project

    def add_file(self, path: Path) -> None:
        name = module_name_for_path(path)
        self._add_source(
            name,
            str(path),
            path.read_text(encoding="utf-8"),
            is_package=path.name == "__init__.py",
        )

    def _add_source(
        self, name: str, path: str, source: str, is_package: bool
    ) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors[path] = exc
            return
        per_line, per_file = parse_suppressions(source)
        module = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            is_package=is_package,
            line_suppressions=per_line,
            file_suppressions=per_file,
        )
        _collect_bindings(module)
        self._collect_defs(module)
        self.files.append(module)
        self.modules[name] = module

    def _collect_defs(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=node.name,
                    node=node,
                    path=module.path,
                )
                module.toplevel.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(module, node)
                module.toplevel.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        module.toplevel.add(target.id)

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            node=node,
            path=module.path,
            base_exprs=[
                text
                for base in node.bases
                if (text := _base_expr_text(base)) is not None
            ],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{item.name}"
                fn = FunctionInfo(
                    qualname=method_qualname,
                    module=module.name,
                    name=item.name,
                    node=item,
                    path=module.path,
                    cls=qualname,
                )
                info.methods[item.name] = fn
                self.functions[method_qualname] = fn
        self.classes[qualname] = info

    def finish(self) -> None:
        """Post-parse pass: import graph and ``self.x = Cls()`` attr types."""
        for module in self.modules.values():
            imported: Set[str] = set()
            for target in module.bindings.values():
                # Credit the deepest project module on the dotted path.
                parts = target.split(".")
                for end in range(len(parts), 0, -1):
                    prefix = ".".join(parts[:end])
                    if prefix in self.modules and prefix != module.name:
                        imported.add(prefix)
                        break
            self.import_graph[module.name] = imported
        for cls in self.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            module = self.modules[cls.module]
            for node in ast.walk(init.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                target_cls = self.resolve_call_to_class(module, node.value)
                if target_cls is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls.attr_types[target.attr] = target_cls.qualname

    # ------------------------------------------------------------------
    # symbol resolution

    def lookup(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Canonical project qualname for ``dotted``, following re-exports.

        Returns a key of :attr:`functions`, :attr:`classes`, or
        :attr:`modules`; None when the name is not a project symbol
        (stdlib, third-party, or genuinely dynamic).
        """
        if _depth > 8:  # re-export cycle guard
            return None
        if (
            dotted in self.functions
            or dotted in self.classes
            or dotted in self.modules
        ):
            return dotted
        # Longest project-module prefix, then resolve the remainder inside
        # it (handles `from repro.durability import write_artifact` where
        # the __init__ re-exports artifacts.write_artifact).
        parts = dotted.split(".")
        for end in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:end])
            rest = parts[end:]
            if prefix in self.functions or prefix in self.classes:
                candidate = ".".join([prefix] + rest)
                if candidate in self.functions:
                    return candidate
                return None
            if prefix not in self.modules:
                continue
            expanded = self.modules[prefix].expand(rest)
            if expanded is None:
                return None
            return self.lookup(expanded, _depth=_depth + 1)
        return None

    def resolve_chain(
        self, module: ModuleInfo, chain: Sequence[str]
    ) -> Optional[str]:
        """Resolve an attribute chain rooted at a local name."""
        expanded = module.expand(chain)
        return None if expanded is None else self.lookup(expanded)

    def resolve_call_to_class(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[ClassInfo]:
        """The project class a constructor-looking call instantiates."""
        chain = attribute_chain(call.func)
        if chain is None:
            return None
        resolved = self.resolve_chain(module, chain)
        if resolved is not None and resolved in self.classes:
            return self.classes[resolved]
        return None

    def class_method(
        self, cls: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Method lookup through project-resolvable base classes."""
        seen = _seen if _seen is not None else set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if name in cls.methods:
            return cls.methods[name]
        module = self.modules.get(cls.module)
        if module is None:
            return None
        for base_text in cls.base_exprs:
            resolved = self.resolve_chain(module, base_text.split("."))
            if resolved is not None and resolved in self.classes:
                found = self.class_method(
                    self.classes[resolved], name, _seen=seen
                )
                if found is not None:
                    return found
        return None


def iter_own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function definitions.

    Nested defs are separate call-graph nodes; attributing their bodies
    to the enclosing function would double-count every call and write.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    yield root
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name roots."""
    chain: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.insert(0, current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        chain.insert(0, current.id)
        return chain
    return None
