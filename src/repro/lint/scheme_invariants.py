"""Scheme-invariant checker (SPB201-SPB204).

The paper's whole contribution is an ordering invariant: the five
security-metadata steps of Fig. 4 form a dependency chain

    counter -> OTP -> BMT root -> ciphertext -> MAC

and every SecPB scheme splits that chain into an *early* prefix (done at
store-persist time) and a *late* suffix (done post-crash on battery).
The drain logic, the recovery code, and the battery sizing all assume
that split — so a scheme table that violates it is crash-inconsistent by
construction, silently.  These rules load any file that defines a
top-level ``SCHEMES`` registry and verify the table semantically:

========  ==========================================================
SPB201    a registered scheme's late set is not a suffix of the
          Fig. 4 dependency chain (early work would depend on state
          that only exists after recovery)
SPB202    early/late sets do not partition the step chain, or an
          early step depends on a late one
SPB203    the scheme's name does not encode its late steps (names are
          load-bearing: CLI flags, result keys, battery tables)
SPB204    the Sec. IV-A coalescing classification is wrong — the
          value-independent set (steps safe to run once per SecPB
          residency) must exclude every step that reads the plaintext
========  ==========================================================

Unlike the AST rules, these execute the scheme table (a controlled
import of the linted file) because the invariants are semantic, not
syntactic; the table is data, and the data is what must be right.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .base import LintContext, Rule, register_rule
from .findings import Finding

#: Fig. 4's dependency chain, by step value, in order.
FIG4_CHAIN: Tuple[str, ...] = ("counter", "otp", "bmt_root", "ciphertext", "mac")

#: Letter each step contributes to a scheme name (Sec. III naming:
#: names spell the *late* steps; 'c' is counter, ciphertext reuses 'c').
NAME_LETTERS: Dict[str, str] = {
    "counter": "c",
    "otp": "o",
    "bmt_root": "b",
    "ciphertext": "c",
    "mac": "m",
}

#: Steps whose computation never reads the data value (Sec. IV-A): these
#: may be coalesced to once per SecPB residency.  Ciphertext and MAC read
#: the plaintext, so coalescing them would persist stale metadata.
VALUE_INDEPENDENT_CHAIN: Tuple[str, ...] = ("counter", "otp", "bmt_root")


def _step_value(step: Any) -> str:
    """Enum member -> its string value; plain strings pass through."""
    return getattr(step, "value", str(step))


_TABLE_CACHE: Dict[Tuple[str, float], Tuple[Optional[Any], Optional[str]]] = {}


def load_scheme_table(path: str, module: str) -> Tuple[Optional[Any], Optional[str]]:
    """Import the scheme-table module behind a linted file.

    Prefers a normal package import (so ``repro.core.schemes`` is checked
    exactly as the simulator sees it); falls back to loading the file
    standalone, which lets tests feed deliberately broken tables from a
    tmp directory.  Returns ``(module_object, error_message)``.
    """
    resolved = str(Path(path).resolve())
    try:
        mtime = Path(resolved).stat().st_mtime
    except OSError:
        mtime = 0.0
    cache_key = (resolved, mtime)
    if cache_key in _TABLE_CACHE:
        return _TABLE_CACHE[cache_key]
    loaded: Optional[Any] = None
    error: Optional[str] = None
    try:
        candidate = importlib.import_module(module)
        if str(Path(getattr(candidate, "__file__", "")).resolve()) == resolved:
            loaded = candidate
    except Exception:  # fall through to standalone load
        loaded = None
    if loaded is None:
        spec = importlib.util.spec_from_file_location(
            f"_secpb_lint_table_{abs(hash(resolved))}", resolved
        )
        if spec is None or spec.loader is None:
            error = "cannot build import spec for scheme table"
        else:
            table_module = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(table_module)
                loaded = table_module
            except Exception as exc:
                error = f"scheme table failed to import: {exc!r}"
    _TABLE_CACHE[cache_key] = (loaded, error)
    return loaded, error


def _schemes_assign_node(tree: ast.Module) -> Optional[ast.AST]:
    """The top-level ``SCHEMES = ...`` statement, if the file has one."""
    for node in tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "SCHEMES":
                return node
    return None


def _iter_schemes(table: Any) -> Iterator[Tuple[str, Any]]:
    registry = getattr(table, "SCHEMES", None)
    if not isinstance(registry, dict):
        return
    for key, scheme in registry.items():
        if hasattr(scheme, "early_steps") and hasattr(scheme, "late_steps"):
            yield str(key), scheme


class _SchemeTableRule(Rule):
    """Shared plumbing: only files defining a top-level SCHEMES table."""

    def applies_to(self, ctx: LintContext) -> bool:
        return _schemes_assign_node(ctx.tree) is not None

    def _anchor(self, ctx: LintContext) -> ast.AST:
        node = _schemes_assign_node(ctx.tree)
        assert node is not None  # applies_to gated
        return node

    def _table(self, ctx: LintContext) -> Tuple[Optional[Any], Optional[str]]:
        return load_scheme_table(ctx.path, ctx.module)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        table, error = self._table(ctx)
        anchor = self._anchor(ctx)
        if error is not None:
            yield ctx.finding(self, anchor, error)
            return
        if table is None:
            return
        yield from self.check_table(ctx, anchor, table)

    def check_table(
        self, ctx: LintContext, anchor: ast.AST, table: Any
    ) -> Iterator[Finding]:
        raise NotImplementedError


def chain_for_table(table: Any) -> Sequence[str]:
    """The dependency chain the table declares (``ALL_STEPS``) or Fig. 4's.

    When the table carries ``STEP_DEPENDENCIES``, the declared chain is
    trusted only if it is a topological order of those edges; otherwise
    the checker falls back to the paper's canonical chain.
    """
    declared = [
        _step_value(s) for s in getattr(table, "ALL_STEPS", ()) or FIG4_CHAIN
    ]
    deps = getattr(table, "STEP_DEPENDENCIES", None)
    if isinstance(deps, dict):
        position = {step: i for i, step in enumerate(declared)}
        for step, requires in deps.items():
            for dep in requires:
                if position.get(_step_value(dep), -1) > position.get(
                    _step_value(step), -1
                ):
                    return FIG4_CHAIN
    return declared


@register_rule
class LateSuffixRule(_SchemeTableRule):
    code = "SPB201"
    summary = (
        "a registered scheme's late set must be a suffix of the Fig. 4 "
        "dependency chain (counter -> OTP -> BMT root -> ciphertext -> MAC)"
    )

    def check_table(
        self, ctx: LintContext, anchor: ast.AST, table: Any
    ) -> Iterator[Finding]:
        chain = list(chain_for_table(table))
        for key, scheme in _iter_schemes(table):
            late = {_step_value(s) for s in scheme.late_steps}
            suffix = set(chain[len(chain) - len(late):]) if late else set()
            if late != suffix:
                yield ctx.finding(
                    self,
                    anchor,
                    f"scheme {key!r}: late set {sorted(late)} is not a "
                    f"suffix of the dependency chain {list(chain)}; a "
                    "non-suffix split defers work whose dependents were "
                    "persisted eagerly, so recovery cannot replay it",
                )


@register_rule
class StepPartitionRule(_SchemeTableRule):
    code = "SPB202"
    summary = (
        "early/late sets must partition the five metadata steps, and no "
        "early step may depend on a late one"
    )

    def check_table(
        self, ctx: LintContext, anchor: ast.AST, table: Any
    ) -> Iterator[Finding]:
        chain = set(chain_for_table(table))
        deps = getattr(table, "STEP_DEPENDENCIES", None) or {}
        for key, scheme in _iter_schemes(table):
            early = {_step_value(s) for s in scheme.early_steps}
            late = {_step_value(s) for s in scheme.late_steps}
            overlap = early & late
            if overlap:
                yield ctx.finding(
                    self,
                    anchor,
                    f"scheme {key!r}: steps {sorted(overlap)} are both "
                    "early and late",
                )
            missing = chain - (early | late)
            if missing:
                yield ctx.finding(
                    self,
                    anchor,
                    f"scheme {key!r}: steps {sorted(missing)} are neither "
                    "early nor late — the drain logic would never persist "
                    "their metadata",
                )
            unknown = (early | late) - chain
            if unknown:
                yield ctx.finding(
                    self,
                    anchor,
                    f"scheme {key!r}: unknown steps {sorted(unknown)} "
                    "(not in the dependency chain)",
                )
            for step, requires in deps.items():
                step_v = _step_value(step)
                if step_v not in early:
                    continue
                late_deps = sorted(
                    _step_value(d) for d in requires if _step_value(d) in late
                )
                if late_deps:
                    yield ctx.finding(
                        self,
                        anchor,
                        f"scheme {key!r}: early step {step_v!r} depends on "
                        f"late steps {late_deps}",
                    )


@register_rule
class NameEncodingRule(_SchemeTableRule):
    code = "SPB203"
    summary = (
        "scheme names must spell their late steps (c/o/b/c/m in chain "
        "order; 'nogap' when nothing is late) and match their registry key"
    )

    def check_table(
        self, ctx: LintContext, anchor: ast.AST, table: Any
    ) -> Iterator[Finding]:
        chain = list(chain_for_table(table))
        for key, scheme in _iter_schemes(table):
            late = {_step_value(s) for s in scheme.late_steps}
            expected = "".join(
                NAME_LETTERS.get(step, "?") for step in chain if step in late
            )
            expected = expected if expected else "nogap"
            name = str(getattr(scheme, "name", key))
            if name != key:
                yield ctx.finding(
                    self,
                    anchor,
                    f"registry key {key!r} does not match scheme name "
                    f"{name!r}",
                )
            if name != expected:
                yield ctx.finding(
                    self,
                    anchor,
                    f"scheme {key!r}: name should encode its late steps "
                    f"as {expected!r} (late={sorted(late)})",
                )


@register_rule
class CoalescingClassRule(_SchemeTableRule):
    code = "SPB204"
    summary = (
        "the Sec. IV-A coalescing classes must partition the chain, and "
        "only steps that never read the plaintext may be value-independent"
    )

    def check_table(
        self, ctx: LintContext, anchor: ast.AST, table: Any
    ) -> Iterator[Finding]:
        chain = set(chain_for_table(table))
        independent = {
            _step_value(s)
            for s in getattr(table, "VALUE_INDEPENDENT_STEPS", ()) or ()
        }
        dependent = {
            _step_value(s)
            for s in getattr(table, "VALUE_DEPENDENT_STEPS", ()) or ()
        }
        if not independent and not dependent:
            return  # table doesn't model coalescing; nothing to verify
        overlap = independent & dependent
        if overlap:
            yield ctx.finding(
                self,
                anchor,
                f"steps {sorted(overlap)} are classed both value-"
                "independent and value-dependent",
            )
        unclassified = chain - (independent | dependent)
        if unclassified:
            yield ctx.finding(
                self,
                anchor,
                f"steps {sorted(unclassified)} have no coalescing class — "
                "the controller cannot decide whether to re-run them per "
                "store",
            )
        misclassified = independent - set(VALUE_INDEPENDENT_CHAIN)
        if misclassified:
            yield ctx.finding(
                self,
                anchor,
                f"steps {sorted(misclassified)} read the data value but "
                "are classed value-independent: coalescing them would "
                "persist metadata for a stale plaintext (Sec. IV-A "
                "permits once-per-residency treatment only for counter/"
                "OTP/BMT-root)",
            )
