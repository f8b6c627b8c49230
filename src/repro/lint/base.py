"""The secpb-lint rule framework.

Rules are small classes registered with :func:`register_rule`; each one
owns a stable code (``SPB101`` ...), a severity, and a summary.  Both
rule kinds share the one registry:

* a :class:`Rule` checks one parsed file at a time through a
  :class:`LintContext`;
* a :class:`ProjectRule` checks the whole program at once (project
  model, call graph, dataflow).

The one driver, :func:`~.semantic.run_project_rules`, runs both kinds
over one parse of every file (:func:`~.semantic.lint_paths` /
:func:`~.semantic.lint_source` parse and call it), applies
``# secpb-lint: disable=CODE`` suppressions, and returns a
deterministic, sorted finding list.

Suppressions
------------

* ``# secpb-lint: disable=SPB101`` on (or at the end of) a line silences
  the listed codes for that line;
* ``# secpb-lint: disable=SPB101,SPB103`` silences several codes;
* ``# secpb-lint: disable-file=SPB103`` anywhere in the file silences a
  code for the whole file.

Scoping
-------

The determinism family only applies inside the simulation packages
(``repro.sim``, ``repro.core``, ``repro.security``) — analysis and CLI
code may legitimately read clocks or the environment.  The module name a
file belongs to is derived from its ``__init__.py`` package ancestry, so
fixture trees used in tests scope exactly like the real source tree.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from .findings import Finding, Severity

_SUPPRESS_RE = re.compile(
    r"#\s*secpb-lint:\s*(disable|disable-file)\s*=\s*([A-Z0-9, ]+)"
)

DETERMINISM_SCOPES: Tuple[str, ...] = ("repro.sim", "repro.core", "repro.security")
"""Packages whose code must be bit-deterministic (the simulated machine).

The parallel experiment runner guarantees byte-identical output across
worker counts; any wall-clock, RNG, hash-order, or environment dependence
inside these packages silently breaks that guarantee.
"""


def module_name_for_path(path: Path) -> str:
    """Dotted module name of ``path``, derived from package ancestry.

    Walks up while parent directories contain ``__init__.py`` — the same
    rule the import system uses — so ``.../src/repro/sim/engine.py``
    maps to ``repro.sim.engine`` regardless of where the tree lives.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def in_scope(module: str, scopes: Sequence[str]) -> bool:
    """True when ``module`` is inside any of the dotted ``scopes``."""
    return any(
        module == scope or module.startswith(scope + ".") for scope in scopes
    )


@dataclass
class LintContext:
    """Everything a per-file rule may inspect about one parsed file."""

    path: str
    tree: ast.Module
    module: str
    #: the file's name resolver, :meth:`~.semantic.project.ModuleInfo.dotted`
    dotted: Callable[[ast.AST], Optional[str]]

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored to ``node`` for ``rule``."""
        return Finding(
            code=rule.code,
            severity=rule.severity,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract per-line and file-wide suppression comments.

    Works on raw source lines rather than the token stream so that even
    files with syntax errors can carry suppressions; the comment must
    follow ``#`` on the physical line the finding is anchored to.
    """
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        kind, codes_text = match.groups()
        codes = {code.strip() for code in codes_text.split(",") if code.strip()}
        if kind == "disable-file":
            per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


class Rule:
    """Base class for one per-file lint rule.

    Subclasses set :attr:`code`, :attr:`severity`, :attr:`summary` (used
    by ``--list-rules`` and the docs) and implement :meth:`check`.
    """

    code: str = "SPB000"
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: LintContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (default: every file)."""
        return True


class ProjectRule:
    """Base class for one whole-program (semantic) lint rule.

    Unlike :class:`Rule`, a project rule sees the entire parsed tree at
    once — the project model, call graph, and dataflow summaries built
    by :mod:`repro.lint.semantic` — so it can check invariants that span
    calls and modules.  ``check_project`` receives the analysis bundle
    (typed loosely here to keep ``base`` free of semantic imports).
    """

    code: str = "SPB700"
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check_project(self, analysis: object) -> Iterator[Finding]:
        raise NotImplementedError


AnyRule = Union[Rule, ProjectRule]

RULES: List[Type[AnyRule]] = []
"""All registered rule classes of both kinds, in registration order."""


def register_rule(cls: Type[AnyRule]) -> Type[AnyRule]:
    """Class decorator adding a rule of either kind to the registry."""
    if any(existing.code == cls.code for existing in RULES):
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES.append(cls)
    return cls


def all_rules() -> List[AnyRule]:
    """Fresh instances of every registered rule, sorted by code."""
    return [cls() for cls in sorted(RULES, key=lambda c: c.code)]


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[AnyRule]:
    """Registry instances filtered by explicit selections/ignores."""
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    rules = []
    for rule in all_rules():
        if selected is not None and rule.code not in selected:
            continue
        if rule.code in ignored:
            continue
        rules.append(rule)
    return rules


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate
