"""Artifact-I/O lint (SPB502): result files must be written atomically.

A harness that studies crash consistency must not itself write results
crash-inconsistently.  A bare ``open(path, "w")`` + ``json.dump`` (or
``Path.write_text``) tears under SIGKILL: the next consumer reads a
truncated JSON report that may even parse.  All result/artifact writes
in the analysis and fault layers must instead route through
:func:`repro.durability.write_artifact` (atomic rename + SHA-256 sidecar
manifest) or :func:`repro.durability.atomic_write_text`.

========  ==========================================================
SPB502    in ``repro.analysis`` / ``repro.fault``: a bare builtin
          ``open(..., "w"/"a"/"x"/"+")`` call, a ``json.dump`` call
          (the file-handle form — ``json.dumps`` to a string is
          fine), or a ``.write_text(...)`` / ``.write_bytes(...)``
          method call
========  ==========================================================

The primitives and messages come from
:func:`~.semantic.io_reachability.raw_write`, the table SPB801-SPB802
use for the same writes reached through helpers in other modules.
Reads (``open(path)``), string serialization (``json.dumps``), and the
durability package itself (which *implements* the atomic discipline) are
out of scope.  Writes that are genuinely not result artifacts — e.g. a
debug dump guarded by a flag — can carry the usual
``# secpb-lint: disable=SPB502`` escape hatch.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import LintContext, Rule, in_scope, register_rule
from .findings import Finding
from .semantic.io_reachability import ARTIFACT_SCOPES, raw_write


@register_rule
class ArtifactIORule(Rule):
    code = "SPB502"
    summary = (
        "analysis/fault code must not write result files with bare "
        "open(..., 'w') / json.dump / Path.write_text — route through "
        "repro.durability.write_artifact so a crash cannot leave a "
        "truncated artifact"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return in_scope(ctx.module, ARTIFACT_SCOPES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                write = raw_write(ctx.dotted(node.func), node)
                if write is not None:
                    yield ctx.finding(self, node, write[1])
