"""Stats-hygiene lint (SPB301-SPB303).

PR 1's warmup-contamination bug was exactly this class of defect: counters
accumulated over the whole run (warmup included) leaked into PPTI / NWPE /
Fig. 8, which are defined over the measured region only.  The fix
introduced a protocol — ``snapshot()`` at the warmup boundary,
``subtract()`` at the end — and these rules keep every future call site
inside it:

========  ==========================================================
SPB301    touching ``StatsCollector._counters`` outside the collector
          itself (bypasses add/snapshot/subtract, so warmup exclusion
          and merge semantics silently stop holding)
SPB302    mutating a result's ``.stats`` mapping after the fact
          (post-hoc "fix-ups" decouple the reported stats from what
          the simulation measured)
SPB303    calling ``stats.snapshot()`` in a function that never calls
          ``subtract()`` — a snapshot that is never subtracted is the
          warmup-contamination bug waiting to recur
SPB304    a function that accepts a warmup parameter and reads the
          collector (``as_dict()``) without ever calling
          ``subtract()`` — it promises warmup exclusion in its
          signature but reports contaminated counters (the exact shape
          of the multi-core regression fixed in PR 6)
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Union

from .base import DETERMINISM_SCOPES, LintContext, Rule, in_scope, register_rule
from .findings import Finding, Severity

_STATS_SCOPES = DETERMINISM_SCOPES + ("repro.baselines", "repro.persistency")
_MUTATING_MAPPING_METHODS = {"update", "pop", "clear", "setdefault", "popitem"}


def _defines_stats_collector(ctx: LintContext) -> bool:
    """True for the file that implements StatsCollector itself."""
    return any(
        isinstance(node, ast.ClassDef) and node.name == "StatsCollector"
        for node in ctx.tree.body
    )


@register_rule
class PrivateCounterAccessRule(Rule):
    code = "SPB301"
    summary = (
        "direct access to StatsCollector._counters outside the collector "
        "bypasses the add/snapshot/subtract protocol"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return not _defines_stats_collector(ctx)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr == "_counters":
                yield ctx.finding(
                    self,
                    node,
                    "access to StatsCollector._counters: use add()/get()/"
                    "snapshot()/subtract() so warmup exclusion and merge "
                    "semantics keep holding",
                )


@register_rule
class ResultStatsMutationRule(Rule):
    code = "SPB302"
    summary = (
        "mutating a SimulationResult.stats mapping after the run decouples "
        "reported stats from what was measured"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        def is_stats_attr(node: ast.AST) -> bool:
            return isinstance(node, ast.Attribute) and node.attr == "stats"

        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and is_stats_attr(
                        target.value
                    ):
                        yield ctx.finding(
                            self,
                            target,
                            "assignment into a .stats mapping: results are "
                            "immutable records of the measured region — "
                            "derive adjusted values into a new structure "
                            "instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_MAPPING_METHODS
                    and is_stats_attr(func.value)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f".stats.{func.attr}(...) mutates a result's stats "
                        "mapping after the run",
                    )


@register_rule
class SnapshotWithoutSubtractRule(Rule):
    code = "SPB303"
    severity = Severity.WARNING
    summary = (
        "snapshot() without a matching subtract() in the same function — "
        "the warmup region is about to contaminate the measured stats"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return in_scope(ctx.module, _STATS_SCOPES) and not _defines_stats_collector(
            ctx
        )

    @staticmethod
    def _is_stats_receiver(node: ast.AST) -> bool:
        """Receiver named like a collector (``stats`` / ``self.stats`` ...).

        The protocol objects are consistently named ``stats``; snapshots
        of other structures (MAC stores, caches) are unrelated to warmup
        accounting and must not trip this rule.
        """
        if isinstance(node, ast.Name):
            return "stats" in node.id
        if isinstance(node, ast.Attribute):
            return "stats" in node.attr
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            snapshots: List[ast.Call] = []
            has_subtract = False
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute
                ):
                    if not self._is_stats_receiver(inner.func.value):
                        continue
                    if inner.func.attr == "snapshot":
                        snapshots.append(inner)
                    elif inner.func.attr == "subtract":
                        has_subtract = True
            if snapshots and not has_subtract:
                for call in snapshots:
                    yield ctx.finding(
                        self,
                        call,
                        f"{node.name}() snapshots stats but never calls "
                        "subtract(): warmup-region counts will leak into "
                        "PPTI/NWPE and every derived figure",
                    )


@register_rule
class WarmupParamWithoutSubtractRule(Rule):
    code = "SPB304"
    severity = Severity.WARNING
    summary = (
        "function takes a warmup parameter and reads the stats collector "
        "without calling subtract() — the signature promises warmup "
        "exclusion the body does not deliver"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return in_scope(ctx.module, _STATS_SCOPES) and not _defines_stats_collector(
            ctx
        )

    @staticmethod
    def _warmup_args(
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[ast.arg]:
        args = node.args
        candidates = args.posonlyargs + args.args + args.kwonlyargs
        return [arg for arg in candidates if "warmup" in arg.arg]

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        is_stats = SnapshotWithoutSubtractRule._is_stats_receiver
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            warmup_args = self._warmup_args(node)
            if not warmup_args:
                continue
            reads_collector = False
            has_subtract = False
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute
                ):
                    if not is_stats(inner.func.value):
                        continue
                    if inner.func.attr == "as_dict":
                        reads_collector = True
                    elif inner.func.attr == "subtract":
                        has_subtract = True
            if reads_collector and not has_subtract:
                yield ctx.finding(
                    self,
                    node,
                    f"{node.name}() accepts {warmup_args[0].arg!r} and reads "
                    "the stats collector but never calls subtract(): the "
                    "warmup region contaminates everything derived from the "
                    "reported counters (the multi-core per-core stats bug)",
                )
