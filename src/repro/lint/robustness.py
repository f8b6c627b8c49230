"""Robustness lints (SPB501, SPB504) for crash/recovery/fault machinery.

The fault-injection campaign's whole value is that a failure is *loud*
and *replayable*.  Two coding patterns silently destroy that:

* a swallowed exception (``except ...: pass``) turns a broken recovery
  path into a phantom "pass" — the campaign grades state that was never
  actually checked;
* unseeded randomness makes a failing case non-replayable: the minimized
  JSON reproducer would execute a *different* scenario on replay.

========  ==========================================================
SPB501    in ``repro.core.crash`` / ``repro.core.recovery`` /
          ``repro.fault``: an ``except`` handler whose body is only
          ``pass`` / ``...``, or unseeded randomness (any RNG primitive
          of :func:`~.semantic.dataflow.classify_call`: global
          ``random.*`` calls, ``random.Random()`` / ``default_rng()``
          without a seed, legacy ``numpy.random`` globals, OS entropy)
SPB504    in ``repro.durability`` / ``repro.runtime``: an ``except``
          handler naming ``OSError`` / ``IOError`` that does not
          surface the error (:func:`_handler_surfaces_error`, the
          predicate SPB901 reads too); anywhere in ``repro``:
          ``os.kill`` / ``signal.signal`` outside the two sanctioned
          homes (``repro.durability.interrupt``, ``repro.envfault``)
========  ==========================================================

The determinism family (SPB101+) already polices ``repro.core``; SPB501
extends its RNG discipline, read from the same primitive table, to
``repro.fault`` (which is *not* part of the simulated machine) and adds
the exception-swallowing check that no other family covers.  SPB504 is
the chaos plane's contract: the environment-fault checker
(:mod:`repro.envfault.check`) grades the durability and runtime layers
on *absorbing* OS faults, and an ``except OSError`` that silently eats
the error makes a genuinely broken path look absorbed.  Raw ``os.kill`` / ``signal.signal`` belong
only in the cooperative-interrupt plane and the fault injector — a
third signal path would race both.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from .base import LintContext, Rule, in_scope, register_rule
from .findings import Finding
from .semantic.dataflow import RNG, classify_call
from .semantic.project import attribute_chain

ROBUSTNESS_SCOPES: Tuple[str, ...] = (
    "repro.core.crash",
    "repro.core.recovery",
    "repro.fault",
)
"""Modules whose failures must stay loud and replayable."""


def _handler_only_passes(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing at all."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare `...`
        return False
    return True


@register_rule
class RobustnessRule(Rule):
    code = "SPB501"
    summary = (
        "crash/recovery/fault code must not swallow exceptions "
        "(`except ...: pass`) or use unseeded randomness — failures "
        "must stay loud and reproducers replayable"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return in_scope(ctx.module, ROBUSTNESS_SCOPES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if _handler_only_passes(node):
                    caught = (
                        ast.unparse(node.type) if node.type else "everything"
                    )
                    yield ctx.finding(
                        self,
                        node,
                        f"exception handler for {caught} swallows the error "
                        "(body is only pass): a broken crash/recovery path "
                        "must surface as a failure record, never vanish",
                    )
            elif isinstance(node, ast.Call):
                dotted = ctx.dotted(node.func)
                if dotted is None or classify_call(dotted, node) != RNG:
                    continue
                numpy = dotted.partition(".")[0] in ("numpy", "np")
                if numpy and dotted.endswith(".default_rng"):
                    yield ctx.finding(
                        self,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded; derive it from the case seed",
                    )
                else:
                    yield ctx.finding(
                        self,
                        node,
                        f"call to {dotted} without a seed: fault cases "
                        "must be pure functions of their seed or the "
                        "minimized JSON reproducer will not replay",
                    )


OSFAULT_SCOPES: Tuple[str, ...] = (
    "repro.durability",
    "repro.runtime",
)
"""Packages the envfault checker grades on absorbing OS faults."""

RAW_SIGNAL_HOMES: Tuple[str, ...] = (
    "repro.durability.interrupt",
    "repro.envfault",
)
"""The only modules allowed to call ``os.kill`` / ``signal.signal``."""

#: Exception names whose handlers must log or re-raise in OSFAULT_SCOPES.
_OS_ERROR_NAMES = ("OSError", "IOError", "EnvironmentError")

#: Method names that count as logging (``logger.warning(...)``,
#: ``warnings.warn(...)``, ...).
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical"}
)


def _caught_names(handler: ast.ExceptHandler) -> Optional[Set[str]]:
    """Class names an ``except`` clause catches, each by its last part.

    ``None`` for a bare ``except:`` or a type expression that is not a
    dotted name or a tuple of them.
    """
    if handler.type is None:
        return None
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: Set[str] = set()
    for type_node in types:
        chain = attribute_chain(type_node)
        if chain is None:
            return None
        names.add(chain[-1])
    return names


def _handler_surfaces_error(handler: ast.ExceptHandler) -> bool:
    """Does the handler keep the error loud? (SPB504 and SPB901)

    Loud means re-raising (possibly translated), logging (any
    ``<receiver>.<log method>(...)`` call, ``warnings.warn`` included),
    printing (CLI front-ends report to stderr; in library code SPB601
    flags the print itself), or using the bound exception: a handler
    that folds ``exc`` into a returned or recorded result captured the
    failure rather than swallowing it.
    """
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Name) and node.id == handler.name:
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
                    return True
                if isinstance(func, ast.Name) and func.id == "print":
                    return True
    return False


@register_rule
class OsFaultHygieneRule(Rule):
    code = "SPB504"
    summary = (
        "durability/runtime code must not swallow OSError silently "
        "(log or re-raise), and raw os.kill / signal.signal belong "
        "only in repro.durability.interrupt / repro.envfault"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        swallow_scope = in_scope(ctx.module, OSFAULT_SCOPES)
        sanctioned = in_scope(ctx.module, RAW_SIGNAL_HOMES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and swallow_scope:
                caught = _caught_names(node)
                if caught is None or caught.isdisjoint(_OS_ERROR_NAMES):
                    continue
                if _handler_surfaces_error(node):
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"handler for {' / '.join(sorted(caught & set(_OS_ERROR_NAMES)))} "
                    "neither logs nor re-raises: the envfault checker "
                    "grades this layer on absorbing OS faults *loudly* — "
                    "a silently eaten OSError makes a broken durability "
                    "path look healthy",
                )
            elif isinstance(node, ast.Call) and not sanctioned:
                dotted = ctx.dotted(node.func)
                if dotted in ("os.kill", "signal.signal"):
                    yield ctx.finding(
                        self,
                        node,
                        f"raw {dotted} outside "
                        f"{' / '.join(RAW_SIGNAL_HOMES)}: a third signal "
                        "path races the cooperative-interrupt plane and "
                        "the fault injector; use StopToken / the "
                        "envfault process shims instead",
                    )
