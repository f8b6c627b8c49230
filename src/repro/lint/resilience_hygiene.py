"""Resilience hygiene (SPB505): nothing in ``repro`` waits to try again.

The only retry in the tree is the task runner's budget
(``run_tasks(retries=)``), which re-runs a task that raised and never
sleeps.  Everything else handles a failure once: a missing shm segment
is rebuilt, a faulted journal append checkpoints and exits resumable.
A raw ``time.sleep`` or a hand-rolled ``while ... except ... continue``
loop would add a second retry whose wait blocks real time and whose
budget is invisible to tests and metrics.

========  ==========================================================
SPB505    anywhere in ``repro``: a call to ``time.sleep``, or a
          ``while`` loop that retries by ``continue``-ing out of an
          ``except`` handler
========  ==========================================================

The loop detection is deliberately shallow: only a ``continue`` at the
*handler's own level* of a ``try`` directly in the ``while`` body counts
— a ``continue`` belonging to a nested loop is that loop's business, and
an ``except`` that re-raises, returns, or falls through is not a retry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, register_rule
from .findings import Finding


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
        "no time.sleep and no hand-rolled while/except/continue retry "
        "loop anywhere in repro — the runner's task budget "
        "(run_tasks(retries=)) is the only retry"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if ctx.dotted(node.func) == "time.sleep":
                    yield ctx.finding(
                        self,
                        node,
                        "raw time.sleep blocks real wall-clock time and "
                        "nothing in repro waits to try again; handle the "
                        "failure once, or let the runner's task budget "
                        "(run_tasks(retries=)) re-run the task",
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
                        "continue): its budget is invisible to tests and "
                        "metrics — handle the failure once, or let the "
                        "runner's task budget (run_tasks(retries=)) re-run "
                        "the task",
                    )
