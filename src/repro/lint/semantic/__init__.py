"""repro.lint.semantic: whole-program analysis under the rule framework.

Layers (each usable on its own):

* :mod:`.project` — parse the whole lint target once; module graph
  and import resolution;
* :mod:`.callgraph` — project call graph with an explicit
  ``unresolved`` set, so soundness gaps are recorded, never hidden;
* :mod:`.dataflow` — intra-procedural CFG + taint dataflow with
  call-graph-propagated function summaries;
* rule families built on top: :mod:`.determinism_taint` (SPB701-704),
  :mod:`.io_reachability` (SPB801-802), :mod:`.exception_flow`
  (SPB901).

:func:`analyze_paths` builds the bundle; :func:`run_project_rules`
drives every registered :class:`~..base.ProjectRule` over it and
applies the same ``# secpb-lint: disable=`` suppressions the per-file
rules honour.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..base import ProjectRule, all_project_rules
from ..findings import Finding, sort_findings
from .callgraph import CallGraph
from .dataflow import TaintAnalysis
from .project import ModuleInfo, ProjectModel

# Importing the rule modules registers their rules.
from . import determinism_taint  # noqa: F401,E402
from . import exception_flow  # noqa: F401,E402
from . import io_reachability  # noqa: F401,E402


class SemanticAnalysis:
    """Lazily-built whole-program analysis bundle handed to rules."""

    def __init__(self, project: ProjectModel) -> None:
        self.project = project
        self._graph: Optional[CallGraph] = None
        self._taint: Optional[TaintAnalysis] = None

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph.build(self.project)
        return self._graph

    @property
    def taint(self) -> TaintAnalysis:
        if self._taint is None:
            self._taint = TaintAnalysis(self.project, self.graph)
            self._taint.run()
        return self._taint


def analyze_paths(paths: Sequence[Path]) -> SemanticAnalysis:
    """Parse ``paths`` into a project model ready for project rules."""
    return SemanticAnalysis(ProjectModel.build(paths))


def _module_for_path(
    project: ProjectModel, cache: Dict[str, Optional[ModuleInfo]], path: str
) -> Optional[ModuleInfo]:
    if path not in cache:
        found = None
        for module in project.modules.values():
            if module.path == path:
                found = module
                break
        cache[path] = found
    return cache[path]


def run_project_rules(
    analysis: SemanticAnalysis,
    rules: Optional[Sequence[ProjectRule]] = None,
) -> List[Finding]:
    """All project-rule findings, suppression-filtered and sorted."""
    findings: List[Finding] = []
    path_cache: Dict[str, Optional[ModuleInfo]] = {}
    for rule in rules if rules is not None else all_project_rules():
        for finding in rule.check_project(analysis):
            module = _module_for_path(
                analysis.project, path_cache, finding.path
            )
            if module is not None:
                if finding.code in module.file_suppressions:
                    continue
                if finding.code in module.line_suppressions.get(
                    finding.line, set()
                ):
                    continue
            findings.append(finding)
    return sort_findings(findings)


__all__ = [
    "CallGraph",
    "ProjectModel",
    "SemanticAnalysis",
    "TaintAnalysis",
    "analyze_paths",
    "run_project_rules",
]
