"""Lint-performance budget: the semantic pass must stay fast enough
to run on every commit.

The whole-program analysis (project model -> call graph -> dataflow
fixed point -> SPB7xx/8xx/9xx rules) re-parses the entire ``src`` tree
on every run.  If it cannot finish well inside the budget, the
pre-commit hook and the ``make lint`` gate stop being something people
run reflexively — which is how static analysis dies in practice.

The budget is deliberately generous (an order of magnitude above the
typical cold run) and overridable via ``SECPB_LINT_PERF_BUDGET``
seconds, so slow shared CI runners cannot flake the gate; it exists to
catch *pathological* regressions (an accidental quadratic fixed point,
a rule re-running the dataflow per finding), not to bench the runner.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main

pytestmark = pytest.mark.quick

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

BUDGET_SECONDS = float(os.environ.get("SECPB_LINT_PERF_BUDGET", "30"))


def test_full_semantic_lint_within_budget():
    start = time.monotonic()
    exit_code = lint_main([str(SRC)])
    elapsed = time.monotonic() - start
    assert exit_code == 0, "src tree must lint clean (see make lint)"
    assert elapsed < BUDGET_SECONDS, (
        f"full-tree lint took {elapsed:.1f}s, budget is "
        f"{BUDGET_SECONDS:.0f}s (override: SECPB_LINT_PERF_BUDGET)"
    )

