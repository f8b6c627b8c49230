"""Interprocedural determinism taint (SPB701-SPB704).

The per-file determinism family (SPB101-104) flags the *line* that
calls a nondeterminism primitive — but only when that line sits inside
the simulated machine (``repro.sim`` / ``repro.core`` /
``repro.security``).  A helper in any other package that wraps
``time.time()`` and returns it launders the nondeterminism past all
four rules.  These rules close the gap using the whole-program taint
analysis: they flag the *simulation-scope call site* where laundered
taint enters, with the full helper chain in the message.

========  ==========================================================
SPB701    wall-clock taint reaching simulation state/results through
          one or more project calls (interprocedural SPB102)
SPB702    unseeded-RNG taint, likewise (interprocedural SPB101)
SPB703    environment taint, likewise (interprocedural SPB104)
SPB704    set-iteration-order taint: a helper materializes a set into
          an ordered sequence and simulation code consumes it
          (interprocedural SPB103)
========  ==========================================================

Both families read their primitives from one table
(:func:`~.dataflow.classify_call`, :func:`~.dataflow.setlike`), and each
primitive is reported where it is called if that is in scope (by
SPB101-104), else where its value enters it (here): chains whose source
function lies inside the determinism scopes are skipped.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..base import DETERMINISM_SCOPES, ProjectRule, in_scope, register_rule
from ..findings import Finding, Severity
from .dataflow import ENV, RNG, SETORDER, WALLCLOCK, Witness

_KIND_LABEL = {
    WALLCLOCK: "wall-clock",
    RNG: "unseeded-RNG",
    ENV: "environment",
    SETORDER: "set-iteration-order",
}

_SINK_LABEL = {
    "return": "the returned result",
    "state": "object/global state",
    "branch": "a branch condition",
    "effect": "callee-held state",
    "arg-state": "callee-held state",
}


def _collect_taint_findings(analysis: object) -> Dict[str, List[Finding]]:
    """All SPB70x findings, grouped by code; cached on the analysis."""
    cache = getattr(analysis, "_spb7xx_cache", None)
    if cache is not None:
        return cache
    findings: Dict[str, List[Finding]] = {}
    taint = analysis.taint  # type: ignore[attr-defined]
    graph = analysis.graph  # type: ignore[attr-defined]
    kind_codes = {
        WALLCLOCK: "SPB701",
        RNG: "SPB702",
        ENV: "SPB703",
        SETORDER: "SPB704",
    }
    for qualname, info in sorted(graph.nodes.items()):
        if not in_scope(info.module, DETERMINISM_SCOPES):
            continue
        seen: Set[Tuple[int, int, str]] = set()
        for event in taint.events_for(qualname):
            for elem in event.elems:
                if elem[0] != "src":
                    continue
                kind, witness, origin = elem[1], elem[2], elem[3]
                assert isinstance(witness, Witness)
                if in_scope(witness.source_module, DETERMINISM_SCOPES):
                    continue  # reported where it is called, by SPB101-104
                lineno = getattr(origin, "lineno", 1)
                col = getattr(origin, "col_offset", 0)
                key = (lineno, col, kind)
                if key in seen:
                    continue
                seen.add(key)
                code = kind_codes[kind]
                findings.setdefault(code, []).append(
                    Finding(
                        code=code,
                        severity=Severity.ERROR,
                        path=info.path,
                        line=lineno,
                        col=col,
                        message=(
                            f"{_KIND_LABEL[kind]} nondeterminism reaches "
                            f"{_SINK_LABEL.get(event.sink, 'simulation state')} "
                            f"in {qualname} through a helper call chain: "
                            f"{witness.render()} — laundered taint the "
                            "per-file determinism rules cannot see; thread "
                            "the value through the job/config or seed it "
                            "from the job seed"
                        ),
                    )
                )
    setattr(analysis, "_spb7xx_cache", findings)
    return findings


class _TaintRule(ProjectRule):
    kind: str = WALLCLOCK

    def check_project(self, analysis: object) -> Iterator[Finding]:
        yield from _collect_taint_findings(analysis).get(self.code, [])


@register_rule
class WallClockTaintRule(_TaintRule):
    code = "SPB701"
    kind = WALLCLOCK
    summary = (
        "wall-clock nondeterminism laundered through helper calls into "
        "simulation state or results (interprocedural SPB102)"
    )


@register_rule
class RngTaintRule(_TaintRule):
    code = "SPB702"
    kind = RNG
    summary = (
        "unseeded-RNG nondeterminism laundered through helper calls into "
        "simulation state or results (interprocedural SPB101)"
    )


@register_rule
class EnvTaintRule(_TaintRule):
    code = "SPB703"
    kind = ENV
    summary = (
        "environment reads laundered through helper calls into "
        "simulation state or results (interprocedural SPB104)"
    )


@register_rule
class SetOrderTaintRule(_TaintRule):
    code = "SPB704"
    kind = SETORDER
    summary = (
        "hash-randomized set order materialized by a helper and consumed "
        "by simulation code (interprocedural SPB103)"
    )
