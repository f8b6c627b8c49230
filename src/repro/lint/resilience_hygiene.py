"""Resilience hygiene (SPB505): no hand-rolled retry/backoff outside
:mod:`repro.resilience`.

The resilience package exists so that every "wait and try again" in the
tree is a declarative, clock-injectable policy: schedules are
deterministic functions of a key, sleeps are virtualizable under a
:class:`~repro.resilience.ManualClock` (which is what makes chaos soaks
wall-clock-deterministic), and retry accounting is shared instead of
re-derived.  A raw ``time.sleep`` or a hand-rolled
``while ... except ... continue`` loop silently opts back out of all of
that — it blocks real time even under an injected clock, and its retry
budget is invisible to tests and metrics.

========  ==========================================================
SPB505    anywhere in ``repro`` outside ``repro.resilience``: a call
          to ``time.sleep`` (use the injectable clock or a
          :class:`~repro.resilience.RetryPolicy`), or a ``while`` loop
          that retries by ``continue``-ing out of an ``except``
          handler (use ``RetryPolicy.call`` /
          ``RetryPolicy.attempts_iter``)
========  ==========================================================

The loop detection is deliberately shallow: only a ``continue`` at the
*handler's own level* of a ``try`` directly in the ``while`` body counts
— a ``continue`` belonging to a nested loop is that loop's business, and
an ``except`` that re-raises, returns, or falls through is not a retry.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .base import LintContext, Rule, in_scope, register_rule
from .findings import Finding

RESILIENCE_HOME: Tuple[str, ...] = ("repro.resilience",)
"""The sanctioned home of sleeps and retry loops."""


def _handler_level_continue(handler: ast.ExceptHandler) -> bool:
    """A ``continue`` at the handler's own loop level (not a nested loop's).

    Walks the handler body but refuses to descend into nested ``for`` /
    ``while`` statements, whose ``continue`` targets the inner loop.
    """
    stack = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Continue):
            return True
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            # A continue inside belongs to this nested loop; the loop's
            # else-clause still runs at the outer level though.
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested def's body runs elsewhere
        stack.extend(ast.iter_child_nodes(node))
    return False


def _retry_handlers(loop: ast.While) -> Iterator[ast.ExceptHandler]:
    """Except handlers directly under ``loop`` that retry via ``continue``."""
    for stmt in loop.body:
        if not isinstance(stmt, ast.Try):
            continue
        for handler in stmt.handlers:
            if _handler_level_continue(handler):
                yield handler


@register_rule
class ResilienceHygieneRule(Rule):
    code = "SPB505"
    summary = (
        "raw time.sleep and hand-rolled while/except/continue retry "
        "loops belong in repro.resilience policies — everywhere else "
        "they dodge the injectable clock and shared retry accounting"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        if in_scope(ctx.module, RESILIENCE_HOME):
            return False
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if ctx.dotted(node.func) == "time.sleep":
                    yield ctx.finding(
                        self,
                        node,
                        "raw time.sleep blocks real wall-clock time even "
                        "under an injected ManualClock; sleep through "
                        "repro.resilience.get_clock() or let a RetryPolicy "
                        "schedule the wait",
                    )
            elif isinstance(node, ast.While):
                for handler in _retry_handlers(node):
                    caught = (
                        ast.unparse(handler.type)
                        if handler.type
                        else "everything"
                    )
                    yield ctx.finding(
                        self,
                        handler,
                        f"hand-rolled retry loop (while ... except {caught}: "
                        "continue): its budget and backoff are invisible to "
                        "tests and metrics — use RetryPolicy.call or "
                        "RetryPolicy.attempts_iter from repro.resilience",
                    )
