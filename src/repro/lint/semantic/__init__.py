"""repro.lint.semantic: one parse, the whole-program analyses, the driver.

Layers (each usable on its own):

* :mod:`.project` — parse the whole lint target once; module graph
  and the one name resolver (:meth:`~.project.ModuleInfo.dotted`);
* :mod:`.callgraph` — project call graph with an explicit
  ``unresolved`` set, so soundness gaps are recorded, never hidden;
* :mod:`.dataflow` — the nondeterminism and set-ness tables, and an
  intra-procedural CFG + taint dataflow with call-graph-propagated
  function summaries;
* rule families built on top: :mod:`.determinism_taint` (SPB701-704),
  :mod:`.io_reachability` (SPB801-802), :mod:`.exception_flow`
  (SPB901).

:func:`run_project_rules` is the one driver for every registered rule:
over one :class:`SemanticAnalysis` it reports parse errors as SPB001,
runs the per-file rules over every parsed file, then the whole-program
rules (whose call graph and taint are built only if one runs), and
applies the ``# secpb-lint: disable=`` suppressions once.
:func:`lint_paths` and :func:`lint_source` wrap it for files on disk
and for one in-memory source; :func:`lint_paths` runs it once per
import root, so each root is its own program.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..base import AnyRule, LintContext, ProjectRule, all_rules, iter_python_files
from ..findings import Finding, Severity, sort_findings
from .callgraph import CallGraph
from .dataflow import TaintAnalysis
from .project import ProjectModel

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
    """Parse ``paths`` into a project model ready for the rules."""
    return SemanticAnalysis(ProjectModel.build(paths))


def run_project_rules(
    analysis: SemanticAnalysis,
    rules: Optional[Sequence[AnyRule]] = None,
) -> List[Finding]:
    """Every finding of ``rules`` (default: all), suppression-filtered
    and sorted."""
    project = analysis.project
    findings = [
        Finding(
            code="SPB001",
            severity=Severity.ERROR,
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )
        for path, exc in project.parse_errors.items()
    ]
    # Every parsed file, not the name-keyed module map: of two files with
    # one dotted name the map keeps only the last.
    contexts = [
        LintContext(info.path, info.tree, info.name, info.dotted)
        for info in project.files
    ]
    for rule in all_rules() if rules is None else rules:
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(analysis))
            continue
        for ctx in contexts:
            if rule.applies_to(ctx):
                findings.extend(rule.check(ctx))
    by_path = {info.path: info for info in project.files}
    kept = []
    for finding in findings:
        info = by_path.get(finding.path)
        if info is not None and (
            finding.code in info.file_suppressions
            or finding.code in info.line_suppressions.get(finding.line, ())
        ):
            continue
        kept.append(finding)
    return sort_findings(kept)


def _import_root(path: Path) -> Path:
    """The first ancestor of ``path`` without an ``__init__.py``: where
    :func:`~..base.module_name_for_path` stops naming packages."""
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parent = parent.parent
    return parent


def lint_paths(
    paths: Sequence[Path], rules: Optional[Sequence[AnyRule]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (the CLI's entry point).

    Files are grouped by import root and each root is analysed as its
    own program: a dotted module name is unique only within one root,
    so two trees that both hold a ``repro`` package never share a model.
    """
    roots: Dict[Path, List[Path]] = {}
    for file_path in iter_python_files(paths):
        roots.setdefault(_import_root(file_path), []).append(file_path)
    findings: List[Finding] = []
    for files in roots.values():
        findings.extend(run_project_rules(analyze_paths(files), rules))
    return sort_findings(findings)


def lint_source(
    source: str,
    path: str,
    module: Optional[str] = None,
    rules: Optional[Sequence[AnyRule]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (the unit tests' entry point)."""
    name = module if module is not None else Path(path).stem
    project = ProjectModel.from_sources({name: (path, source)})
    return run_project_rules(SemanticAnalysis(project), rules)


__all__ = [
    "CallGraph",
    "ProjectModel",
    "SemanticAnalysis",
    "TaintAnalysis",
    "analyze_paths",
    "lint_paths",
    "lint_source",
    "run_project_rules",
]
