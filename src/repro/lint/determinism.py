"""Determinism lint (SPB101-SPB105).

PR 1 made every paper artifact depend on a hard guarantee: a parallel
``run_jobs`` sweep must be **byte-identical** to the serial one.  The
simulated machine (``repro.sim``, ``repro.core``, ``repro.security``)
therefore must not consult any source of nondeterminism:

========  ==========================================================
SPB101    unseeded RNG (``random.*`` globals, ``numpy.random`` legacy
          globals, ``default_rng()``/``Random()`` without a seed) and
          OS entropy (``uuid.uuid1``/``uuid4``, ``os.urandom``,
          ``secrets.*``)
SPB102    wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now`` ...) — timing must come from the simulated
          clock, never the host's
SPB103    set-iteration-order dependence — CPython string hashes are
          randomized per process (PYTHONHASHSEED), so iterating a set
          into any order-sensitive sink differs across pool workers
SPB104    ``os.environ`` / ``os.getenv`` reads — worker environments
          are not part of a job's key, so results would not be
          reproducible from the job description alone
SPB105    counter names built per access — an f-string / concatenated /
          formatted name argument to ``stats.add`` / ``stats.set`` /
          ``stats.counter`` outside ``__init__`` allocates a fresh
          string on the hot path; build the name once at construction
          time and bind a ``stats.counter(name)`` closure instead
========  ==========================================================

All five rules are scoped to :data:`~.base.DETERMINISM_SCOPES`; analysis
and CLI code (progress timing, ``--jobs`` defaults) may use these APIs
freely.  SPB101-SPB104 read their primitives and set-ness from
:mod:`.semantic.dataflow`, the same table the whole-program taint pass
(SPB701-SPB704) uses for its sources: a primitive is reported where it
is called when that is in scope, else where its value enters.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from .base import (
    DETERMINISM_SCOPES,
    LintContext,
    Rule,
    in_scope,
    register_rule,
)
from .findings import Finding
from .semantic.dataflow import (
    ENV,
    RNG,
    WALLCLOCK,
    classify_call,
    infer_set_locals,
    reads_environ,
    setlike,
)


class _DeterminismRule(Rule):
    """Shared scoping: only the simulated machine's packages."""

    def applies_to(self, ctx: LintContext) -> bool:
        return in_scope(ctx.module, DETERMINISM_SCOPES)


@register_rule
class UnseededRandomRule(_DeterminismRule):
    code = "SPB101"
    summary = (
        "unseeded / global RNG use in simulation code breaks the "
        "byte-identical parallel-run guarantee"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None or classify_call(dotted, node) != RNG:
                continue
            package = dotted.partition(".")[0]
            if package == "random":
                message = (
                    f"call to {dotted}: the global `random` RNG is "
                    "process-shared, unseeded state; derive a seeded "
                    "Generator from the job seed instead"
                )
            elif package not in ("numpy", "np"):
                message = (
                    f"call to {dotted}: OS entropy differs on every run "
                    "and worker; derive the value from the job seed instead"
                )
            elif dotted.endswith(".default_rng"):
                message = (
                    "numpy.random.default_rng() without a seed is "
                    "entropy-seeded; pass the trace/job seed"
                )
            else:
                message = (
                    f"call to numpy.random.{dotted.split('.', 2)[2]}: the "
                    "legacy numpy global RNG is shared, unseeded state; use "
                    "numpy.random.default_rng(seed)"
                )
            yield ctx.finding(self, node, message)


@register_rule
class WallClockRule(_DeterminismRule):
    code = "SPB102"
    summary = (
        "wall-clock read in simulation code — simulated time must come "
        "from the model clock, never the host"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted(node.func)
            if dotted is None or classify_call(dotted, node) != WALLCLOCK:
                continue
            clock = "wall-clock" if dotted.startswith("time.") else "date/time"
            yield ctx.finding(
                self,
                node,
                f"call to {dotted}: host {clock} is nondeterministic "
                "across runs and workers",
            )


_SAFE_SINKS = {
    "sorted",
    "set",
    "frozenset",
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "bool",
}
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed", "next"}
_STRINGIFY_CALLS = {"str", "repr", "format"}


@register_rule
class SetIterationOrderRule(_DeterminismRule):
    code = "SPB103"
    summary = (
        "iteration/formatting of a set in an order-sensitive position — "
        "hash randomization makes the order differ across pool workers"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        set_locals = infer_set_locals(ctx.tree)

        def inside_safe_sink(node: ast.AST) -> bool:
            parent = parents.get(node)
            if isinstance(parent, ast.Call):
                func = parent.func
                if isinstance(func, ast.Name) and func.id in _SAFE_SINKS:
                    return True
            return False

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and setlike(node.iter, set_locals):
                yield ctx.finding(
                    self,
                    node.iter,
                    "for-loop over a set: iteration order depends on hash "
                    "randomization; iterate sorted(...) instead",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if inside_safe_sink(node):
                    continue
                for gen in node.generators:
                    if setlike(gen.iter, set_locals):
                        yield ctx.finding(
                            self,
                            gen.iter,
                            "comprehension over a set builds an order-"
                            "dependent sequence; wrap the set in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CALLS | _STRINGIFY_CALLS
                    and node.args
                    and setlike(node.args[0], set_locals)
                    and not inside_safe_sink(node)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"{func.id}(...) over a set captures hash-"
                        "randomized order; apply sorted(...) first",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and setlike(node.args[0], set_locals)
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "str.join over a set produces an order-dependent "
                        "string; join sorted(...) instead",
                    )
            elif isinstance(node, ast.FormattedValue) and setlike(
                node.value, set_locals
            ):
                yield ctx.finding(
                    self,
                    node.value,
                    "formatting a set into a string is order-dependent "
                    "(even in error messages); format sorted(...) instead",
                )


@register_rule
class EnvironReadRule(_DeterminismRule):
    code = "SPB104"
    summary = (
        "os.environ read in simulation code — worker environments are "
        "not part of the job key, so results would not be reproducible"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and reads_environ(node, ctx.dotted):
                yield ctx.finding(
                    self,
                    node,
                    "os.environ access: environment state must not "
                    "influence simulation results; thread the value "
                    "through the job/config instead",
                )
            elif isinstance(node, ast.Name) and reads_environ(node, ctx.dotted):
                yield ctx.finding(
                    self,
                    node,
                    "os.environ access (imported alias): thread the value "
                    "through the job/config instead",
                )
            elif isinstance(node, ast.Call):
                dotted = ctx.dotted(node.func)
                if dotted is not None and classify_call(dotted, node) == ENV:
                    yield ctx.finding(
                        self,
                        node,
                        "os.getenv call: environment state must not "
                        "influence simulation results",
                    )


_COUNTER_SINK_METHODS = {"add", "set", "counter"}


def _stats_receiver(node: ast.AST) -> bool:
    """Heuristic: does ``node`` name a StatsCollector?

    Matches the naming convention the simulated machine uses everywhere:
    a bare ``stats`` local/parameter or a ``*.stats`` / ``*._stats``
    attribute (``self.stats.add(...)``).
    """
    if isinstance(node, ast.Name):
        return node.id in ("stats", "_stats") or node.id.endswith("_stats")
    if isinstance(node, ast.Attribute):
        return node.attr in ("stats", "_stats") or node.attr.endswith("_stats")
    return False


@register_rule
class DynamicCounterNameRule(_DeterminismRule):
    code = "SPB105"
    summary = (
        "counter name built per access (f-string/concat/format) — "
        "construct names once in __init__ and bind a stats.counter "
        "closure for the hot path"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        # Enclosing-function chain for every node, so calls inside
        # __init__ (including closures defined there) are exempt: name
        # construction at build time is exactly the recommended fix.
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent

        def in_init(node: ast.AST) -> bool:
            current = parents.get(node)
            while current is not None:
                if (
                    isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and current.name == "__init__"
                ):
                    return True
                current = parents.get(current)
            return False

        def in_function(node: ast.AST) -> bool:
            current = parents.get(node)
            while current is not None:
                if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    return True
                current = parents.get(current)
            return False

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _COUNTER_SINK_METHODS
                and _stats_receiver(func.value)
            ):
                continue
            name_arg = self._name_argument(node)
            if name_arg is None or not self._dynamic_string(name_arg):
                continue
            # Names built once — at module/class level or anywhere under
            # __init__ — are the sanctioned pattern, not a hot-path cost.
            if not in_function(node) or in_init(node):
                continue
            yield ctx.finding(
                self,
                name_arg,
                f"stats.{func.attr} name is constructed per call; every "
                "access allocates and hashes a fresh string.  Build the "
                "name once in __init__ and keep a bound "
                "stats.counter(name) closure for the per-access path",
            )

    @staticmethod
    def _name_argument(call: ast.Call) -> Optional[ast.AST]:
        if call.args:
            return call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "name":
                return keyword.value
        return None

    @classmethod
    def _dynamic_string(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.JoinedStr):
            # f"literal" with no substitutions is just a constant.
            return any(
                isinstance(value, ast.FormattedValue) for value in node.values
            )
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mod):
                return cls._stringy(node.left)
            if isinstance(node.op, ast.Add):
                return cls._stringy(node.left) or cls._stringy(node.right)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("format", "join"):
                return True
        return False

    @classmethod
    def _stringy(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return True
        if isinstance(node, ast.JoinedStr):
            return True
        return cls._dynamic_string(node)
