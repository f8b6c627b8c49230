"""secpb-lint: static analysis tailored to the SecPB reproduction.

Per-file checker families guard the invariants the simulator's
correctness — and the paper artifacts' reproducibility — actually rest
on.  Every rule reads source text only: secpb-lint never imports or runs
the code it lints.

* **determinism** (SPB101-104): nothing inside ``repro.sim`` /
  ``repro.core`` / ``repro.security`` may consult an RNG, the wall
  clock, hash-randomized set order, or the environment — any of these
  silently breaks the runner's byte-identical-parallel guarantee;
* **stats hygiene** (SPB301-304): counters move only through the
  StatsCollector protocol (add/snapshot/subtract) introduced with the
  warmup-contamination fix, and any function advertising a warmup
  parameter must actually subtract the warmup snapshot;
* **pool safety** (SPB401-404): everything submitted through
  ``repro.analysis.runner`` must be statically picklable, and
  shared-memory segments / process pools are constructed only inside
  the :mod:`repro.runtime` modules that track their lifecycles;
* **robustness** (SPB501): crash/recovery/fault code must not swallow
  exceptions (``except ...: pass``) or use unseeded randomness —
  campaign failures must stay loud and reproducers replayable;
* **OS-fault hygiene** (SPB504): durability/runtime code must not
  swallow ``OSError`` silently (the envfault checker grades those
  layers on absorbing OS faults *loudly*), and raw ``os.kill`` /
  ``signal.signal`` stay inside ``repro.durability.interrupt`` and
  ``repro.envfault``;
* **resilience hygiene** (SPB505): no ``time.sleep`` call and no
  hand-rolled retry loop (a ``while`` whose handler swallows and
  continues) anywhere in ``repro`` — the runner's task budget
  (``run_tasks(retries=)``) is the only retry, and nothing waits;
* **artifact I/O** (SPB502): result-writing code in ``repro.analysis``
  / ``repro.fault`` must not use bare ``open(..., "w")`` /
  ``json.dump`` / ``Path.write_text`` — artifacts route through the
  atomic, manifested writer in :mod:`repro.durability` so a crash can
  never leave a truncated report;
* **observability** (SPB601-602): no ``print()`` in library scope and
  no ad-hoc logging configuration outside ``repro.obs`` — diagnostics
  flow through one logging bootstrap, hot-path instrumentation through
  the bound no-op tracing hooks.

Three more families see the whole program at once — the project model,
call graph and dataflow summaries of :mod:`repro.lint.semantic` — and
check the invariants a single-file view cannot see:

* **interprocedural determinism taint** (SPB701-704): wall-clock, RNG,
  environment, and set-order values laundered through helpers in *other*
  modules into simulation state;
* **artifact-IO reachability** (SPB801-802): raw filesystem writes
  reachable from analysis/fault code — or leaking out of
  ``repro.durability`` — without passing the sanctioned atomic writers;
* **cross-module exception flow** (SPB901): crash/recovery/fault
  exceptions swallowed by callers in other modules without logging or
  re-raising.

The nondeterminism, set-order and raw-write primitives are each defined
once and read by both views: a per-file rule reports one where it is
called if that is in scope, its whole-program twin where its value
enters the scope.  Every rule is registered with one
``@register_rule`` and run by one driver over one parse of the tree
(:func:`run_project_rules`); use :func:`lint_paths` /
:func:`lint_source` programmatically, or the ``repro lint`` CLI
(``python -m repro.lint``).  Rules support per-line
``# secpb-lint: disable=CODE`` and file-wide
``# secpb-lint: disable-file=CODE`` suppressions.
"""

from __future__ import annotations

# Importing the rule modules registers their rules.
from . import (  # noqa: F401
    artifact_io,
    determinism,
    observability,
    pool_safety,
    resilience_hygiene,
    robustness,
    stats_hygiene,
)
from .base import (
    DETERMINISM_SCOPES,
    LintContext,
    ProjectRule,
    Rule,
    all_rules,
    module_name_for_path,
    select_rules,
)
from .cli import main
from .findings import Finding, Severity, findings_to_json, sort_findings
from .semantic import (
    SemanticAnalysis,
    analyze_paths,
    lint_paths,
    lint_source,
    run_project_rules,
)

__all__ = [
    "DETERMINISM_SCOPES",
    "Finding",
    "LintContext",
    "ProjectRule",
    "Rule",
    "SemanticAnalysis",
    "Severity",
    "all_rules",
    "analyze_paths",
    "findings_to_json",
    "lint_paths",
    "lint_source",
    "main",
    "module_name_for_path",
    "run_project_rules",
    "select_rules",
    "sort_findings",
]
