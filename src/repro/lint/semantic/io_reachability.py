"""Artifact-I/O reachability (SPB801-SPB802) and the raw-write table.

:func:`raw_write` is the one definition of a raw filesystem write: a
bare ``open(path, "w")``, ``json.dump`` to a handle, or a
``.write_text`` / ``.write_bytes`` call.  SPB502 flags one *written
inside* ``repro.analysis`` or ``repro.fault``; wrap the same write in a
helper one module over and it escapes.  These rules upgrade the
invariant to graph reachability:

========  ==========================================================
SPB801    a raw filesystem write inside ``repro.durability`` whose
          enclosing function is reachable from code outside the
          durability package *without* passing through a sanctioned
          writer — the atomic-write discipline must be encapsulated,
          not merely colocated
SPB802    a call site in ``repro.analysis`` / ``repro.fault`` whose
          callee (transitively, through helpers in any module)
          performs a raw filesystem write that is not routed through
          ``write_artifact`` / ``atomic_write_*`` / the journal —
          the laundering blind spot of SPB502
========  ==========================================================

Sanctioned writers — the functions that *implement* the atomic
discipline — terminate propagation: a chain that reaches a raw write
only through ``write_artifact`` or a journal append is exactly the
design intent.  A raw write is reported where it is called if that is
in analysis/fault code (SPB502), else where it enters it (SPB802).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..base import ProjectRule, in_scope, register_rule
from ..findings import Finding, Severity
from .callgraph import CallGraph
from .project import ProjectModel, iter_own_nodes

ARTIFACT_SCOPES: Tuple[str, ...] = ("repro.analysis", "repro.fault")
"""Layers that write experiment/campaign artifacts to disk."""

DURABILITY_SCOPE = "repro.durability"

#: functions allowed to contain / front raw writes: the atomic writers
#: and everything in the journal (append-only fsynced discipline)
_SANCTIONED_NAMES = frozenset(
    {
        "atomic_write_bytes",
        "atomic_write_text",
        "write_artifact",
        "quarantine_artifact",
    }
)

_WRITE_MODE_CHARS = frozenset("wax+")
_WRITE_METHODS = ("write_text", "write_bytes")


def is_sanctioned(qualname: str) -> bool:
    """Writer functions that own the atomic/journal write discipline."""
    if qualname.startswith(DURABILITY_SCOPE + ".journal."):
        return True
    return (
        qualname.startswith(DURABILITY_SCOPE + ".")
        and qualname.split(".")[-1] in _SANCTIONED_NAMES
    )


@dataclass(frozen=True)
class RawWrite:
    """One raw write primitive call site."""

    fn: str  # enclosing function qualname
    path: str
    lineno: int
    col: int
    primitive: str  # "open(mode='w')", ".write_text(...)", "json.dump"


def _literal_mode(call: ast.Call) -> Optional[str]:
    """The ``open`` mode argument when it is a string literal, else None."""
    if len(call.args) >= 2:
        mode = call.args[1]
    else:
        mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def raw_write(
    dotted: Optional[str], call: ast.Call
) -> Optional[Tuple[str, str]]:
    """``(primitive, SPB502 message)`` when ``call`` — whose callee
    resolves to ``dotted`` — is a raw filesystem write, else None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _literal_mode(call)
        if mode is None or not _WRITE_MODE_CHARS & set(mode):
            return None
        return (
            f"open(mode={mode!r})",
            f"bare open(..., {mode!r}) write: a crash mid-write leaves a "
            "truncated artifact; use repro.durability.write_artifact (or "
            "atomic_write_text) instead",
        )
    if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
        return (
            f".{func.attr}(...)",
            f".{func.attr}(...) is a non-atomic write: a crash mid-write "
            "leaves a truncated artifact; use "
            "repro.durability.write_artifact (or atomic_write_text) instead",
        )
    if dotted == "json.dump":
        return (
            "json.dump",
            "json.dump to a file handle is a non-atomic write; serialize "
            "with json.dumps and write through "
            "repro.durability.write_artifact instead",
        )
    return None


def find_raw_writes(
    project: ProjectModel, graph: CallGraph
) -> Dict[str, List[RawWrite]]:
    """Raw write primitives per enclosing function, project-wide."""
    writes: Dict[str, List[RawWrite]] = {}
    for qualname, info in graph.nodes.items():
        module = project.modules.get(info.module)
        if module is None:
            continue
        for node in iter_own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            write = raw_write(module.dotted(node.func), node)
            if write is not None:
                writes.setdefault(qualname, []).append(
                    RawWrite(
                        fn=qualname,
                        path=info.path,
                        lineno=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        primitive=write[0],
                    )
                )
    return writes


def _propagate_writes(
    graph: CallGraph, writes: Dict[str, List[RawWrite]]
) -> Dict[str, Tuple[Tuple[str, ...], RawWrite]]:
    """For each function: a chain (callee hops) to a reachable raw write.

    Propagation stops at sanctioned writers — reaching a write *through*
    ``write_artifact`` is the sanctioned path, not a finding.
    """
    reach: Dict[str, Tuple[Tuple[str, ...], RawWrite]] = {}
    for fn, sites in writes.items():
        reach[fn] = ((), sites[0])
    pending = set(reach)
    rounds = 0
    while pending and rounds < 64:
        rounds += 1
        current, pending = pending, set()
        for fn in current:
            if is_sanctioned(fn):
                continue  # callers reaching a sanctioned writer are fine
            chain, write = reach[fn]
            for caller in graph.callers_of(fn):
                if caller in reach:
                    continue
                reach[caller] = ((fn,) + chain, write)
                pending.add(caller)
    return reach


def _analysis_state(analysis: object) -> Tuple[
    ProjectModel, CallGraph, Dict[str, List[RawWrite]],
    Dict[str, Tuple[Tuple[str, ...], RawWrite]],
]:
    cached = getattr(analysis, "_spb8xx_cache", None)
    if cached is None:
        project = analysis.project  # type: ignore[attr-defined]
        graph = analysis.graph  # type: ignore[attr-defined]
        writes = find_raw_writes(project, graph)
        reach = _propagate_writes(graph, writes)
        cached = (project, graph, writes, reach)
        setattr(analysis, "_spb8xx_cache", cached)
    return cached


@register_rule
class DurabilityEncapsulationRule(ProjectRule):
    code = "SPB801"
    severity = Severity.ERROR
    summary = (
        "raw filesystem write in repro.durability reachable from outside "
        "the package without passing a sanctioned atomic writer — the "
        "write discipline must be encapsulated"
    )

    def check_project(self, analysis: object) -> Iterator[Finding]:
        project, graph, writes, _reach = _analysis_state(analysis)
        for qualname in sorted(writes):
            info = graph.nodes.get(qualname)
            if info is None or not in_scope(info.module, (DURABILITY_SCOPE,)):
                continue
            if is_sanctioned(qualname):
                continue
            offender = _outside_reacher(graph, qualname)
            if offender is None:
                continue
            for write in writes[qualname]:
                yield Finding(
                    code=self.code,
                    severity=self.severity,
                    path=write.path,
                    line=write.lineno,
                    col=write.col,
                    message=(
                        f"raw write {write.primitive} in {qualname} is "
                        f"reachable from {offender} outside repro.durability "
                        "without passing write_artifact/atomic_write_*/"
                        "journal append; move the write behind a sanctioned "
                        "writer so every artifact stays atomic and "
                        "manifested"
                    ),
                )


def _outside_reacher(graph: CallGraph, target: str) -> Optional[str]:
    """A non-durability function that reaches ``target`` bypassing
    sanctioned writers, or None when the write is encapsulated."""
    seen: Set[str] = set()
    stack = [target]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        for caller in sorted(graph.callers_of(current)):
            if is_sanctioned(caller):
                continue  # path through the sanctioned API is the design
            info = graph.nodes.get(caller)
            if info is not None and not in_scope(
                info.module, (DURABILITY_SCOPE,)
            ):
                return caller
            stack.append(caller)
    return None


@register_rule
class LaunderedWriteRule(ProjectRule):
    code = "SPB802"
    severity = Severity.ERROR
    summary = (
        "analysis/fault call chain reaches a raw filesystem write in "
        "another module without routing through "
        "repro.durability.write_artifact (interprocedural SPB502)"
    )

    def check_project(self, analysis: object) -> Iterator[Finding]:
        project, graph, _writes, reach = _analysis_state(analysis)
        seen: Set[Tuple[str, int, str]] = set()
        for caller in sorted(graph.edges):
            info = graph.nodes.get(caller)
            if info is None or not in_scope(info.module, ARTIFACT_SCOPES):
                continue
            for site in graph.call_sites(caller):
                if is_sanctioned(site.callee):
                    continue
                entry = reach.get(site.callee)
                if entry is None:
                    continue
                chain, write = entry
                write_info = graph.nodes.get(write.fn)
                if write_info is not None and in_scope(
                    write_info.module, ARTIFACT_SCOPES
                ):
                    continue  # reported where it is called, by SPB502
                key = (info.path, site.lineno, site.callee)
                if key in seen:
                    continue
                seen.add(key)
                hops = " -> ".join((site.callee,) + chain)
                yield Finding(
                    code=self.code,
                    severity=self.severity,
                    path=info.path,
                    line=site.lineno,
                    col=site.col,
                    message=(
                        f"call from {caller} reaches a raw write "
                        f"{write.primitive} via {hops} without passing "
                        "repro.durability.write_artifact — a crash "
                        "mid-write can leave a truncated artifact that "
                        "SPB502 cannot see across module boundaries"
                    ),
                )
