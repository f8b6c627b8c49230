"""Cross-module exception flow (SPB901).

SPB501 flags an ``except ...: pass`` *inside* the crash/recovery/fault
packages.  It cannot see the complementary failure: crash machinery
dutifully raises, and a **caller in another module** catches the
exception and swallows it — the campaign grades state that was never
actually verified, and nothing in the per-file view connects the two
lines.

========  ==========================================================
SPB901    an ``except`` handler (anywhere in the project) whose try
          body calls into crash/recovery/fault/durability code that
          may raise, where the handler matches those exceptions and
          neither logs nor re-raises — the failure signal dies at a
          module boundary
========  ==========================================================

"May raise" is a call-graph summary: explicit ``raise`` statements of
named exception classes, propagated caller-ward through call sites that
are not themselves wrapped in a ``try``.  A handler is compliant when
it surfaces the error by the predicate SPB504 reads too
(:func:`~repro.lint.robustness._handler_surfaces_error`): it re-raises
(possibly translated), logs, prints, or uses the bound exception.
Empty handlers inside the robustness scopes stay SPB501's finding (no
double-reporting).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..base import ProjectRule, in_scope, register_rule
from ..findings import Finding, Severity
from ..robustness import (
    ROBUSTNESS_SCOPES,
    _caught_names,
    _handler_only_passes,
    _handler_surfaces_error,
)
from .callgraph import CallGraph
from .project import ProjectModel, attribute_chain, iter_own_nodes

#: packages whose exceptions carry the crash/recovery failure signal
RAISER_SCOPES: Tuple[str, ...] = (
    "repro.core.crash",
    "repro.core.recovery",
    "repro.fault",
    "repro.durability",
)

_CATCH_ALL = frozenset({"Exception", "BaseException"})


def _direct_raises(info_node: ast.AST) -> Set[str]:
    """Exception class names this function raises outside any try."""
    raises: Set[str] = set()
    # Only raises not nested under a Try are summarized: a raise inside
    # a try may be handled locally, and modelling that precisely buys
    # little for this rule.
    stack: List[Tuple[ast.AST, bool]] = [
        (child, False) for child in ast.iter_child_nodes(info_node)
    ]
    while stack:
        node, in_try = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Raise) and not in_try:
            name = _exception_name(node)
            if name is not None:
                raises.add(name)
        child_in_try = in_try or isinstance(node, ast.Try)
        stack.extend(
            (child, child_in_try) for child in ast.iter_child_nodes(node)
        )
    return raises


def _exception_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if exc is None:
        return None  # bare re-raise
    if isinstance(exc, ast.Call):
        exc = exc.func
    chain = attribute_chain(exc)
    if chain is None:
        return None
    return chain[-1]


def _propagate_raises(
    project: ProjectModel, graph: CallGraph
) -> Dict[str, Set[str]]:
    """qualname -> exception names it may raise (transitively)."""
    raises: Dict[str, Set[str]] = {}
    for qualname, info in graph.nodes.items():
        if not in_scope(info.module, RAISER_SCOPES):
            continue
        direct = _direct_raises(info.node)
        if direct:
            raises[qualname] = set(direct)
    # Caller-ward propagation inside the raiser scopes only: the rule
    # fires at the first boundary where the exception escapes into
    # other code, so summaries outside the scopes aren't needed.
    pending = set(raises)
    rounds = 0
    while pending and rounds < 64:
        rounds += 1
        current, pending = pending, set()
        for fn in current:
            for caller in graph.callers_of(fn):
                info = graph.nodes.get(caller)
                if info is None or not in_scope(info.module, RAISER_SCOPES):
                    continue
                if _calls_under_try(graph, caller, fn):
                    continue
                merged = raises.setdefault(caller, set())
                before = len(merged)
                merged |= raises[fn]
                if len(merged) != before:
                    pending.add(caller)
    return raises


def _calls_under_try(graph: CallGraph, caller: str, callee: str) -> bool:
    """True when every call site caller->callee sits inside a try."""
    info = graph.nodes.get(caller)
    if info is None:
        return False
    call_lines = {
        site.lineno
        for site in graph.call_sites(caller)
        if site.callee == callee
    }
    if not call_lines:
        return False
    try_spans: List[Tuple[int, int]] = []
    for node in iter_own_nodes(info.node):
        if isinstance(node, ast.Try):
            end = getattr(node.body[-1], "end_lineno", node.body[-1].lineno)
            try_spans.append((node.lineno, end or node.body[-1].lineno))
    return all(
        any(start <= line <= end for start, end in try_spans)
        for line in call_lines
    )


@register_rule
class SwallowedCrashExceptionRule(ProjectRule):
    code = "SPB901"
    severity = Severity.ERROR
    summary = (
        "caller swallows an exception raised by crash/recovery/fault/"
        "durability code without logging or re-raising — the failure "
        "signal dies at a module boundary (interprocedural SPB501)"
    )

    def check_project(self, analysis: object) -> Iterator[Finding]:
        project: ProjectModel = analysis.project  # type: ignore[attr-defined]
        graph: CallGraph = analysis.graph  # type: ignore[attr-defined]
        raises = _propagate_raises(project, graph)
        for caller in sorted(graph.nodes):
            info = graph.nodes[caller]
            module = project.modules.get(info.module)
            if module is None:
                continue
            for node in iter_own_nodes(info.node):
                if not isinstance(node, ast.Try):
                    continue
                risky = self._risky_callees(graph, caller, node, raises)
                if not risky:
                    continue
                for handler in node.handlers:
                    if _handler_only_passes(handler) and in_scope(
                        info.module, ROBUSTNESS_SCOPES
                    ):
                        continue  # SPB501's finding; don't double-report
                    caught = _caught_names(handler)
                    if caught is not None and not caught.isdisjoint(
                        _CATCH_ALL
                    ):
                        caught = None  # catches everything
                    matched = [
                        (callee, exc_name)
                        for callee, exc_names in risky
                        for exc_name in sorted(exc_names)
                        if caught is None or exc_name in caught
                    ]
                    if not matched:
                        continue
                    if _handler_surfaces_error(handler):
                        continue
                    callee, exc_name = matched[0]
                    caught_text = (
                        ast.unparse(handler.type)
                        if handler.type is not None
                        else "everything"
                    )
                    yield Finding(
                        code=self.code,
                        severity=self.severity,
                        path=info.path,
                        line=handler.lineno,
                        col=handler.col_offset,
                        message=(
                            f"handler for {caught_text} in {caller} "
                            f"swallows {exc_name} raised by {callee} "
                            "without logging or re-raising — crash/"
                            "recovery failures must stay loud across "
                            "module boundaries; log the exception or "
                            "re-raise a translated error"
                        ),
                    )

    @staticmethod
    def _risky_callees(
        graph: CallGraph,
        caller: str,
        try_node: ast.Try,
        raises: Dict[str, Set[str]],
    ) -> List[Tuple[str, Set[str]]]:
        """(callee, exceptions) for raising calls inside this try body."""
        start = try_node.lineno
        last = try_node.body[-1]
        end = getattr(last, "end_lineno", last.lineno) or last.lineno
        risky: List[Tuple[str, Set[str]]] = []
        for site in graph.call_sites(caller):
            if not (start <= site.lineno <= end):
                continue
            exc_names = raises.get(site.callee)
            if exc_names:
                risky.append((site.callee, exc_names))
        return risky
