"""The live fault-injection context and its ``SECPB_ENVFAULT`` env gate.

This module is the *only* state the fault shims in
:mod:`repro.envfault.fsfault` and :mod:`repro.envfault.procfault`
consult, and it is deliberately a leaf: it depends on nothing in
``repro`` beyond :mod:`repro.envfault.plan` (itself pure stdlib), so
the durability package's import-light layering survives.

Every injection site has one code path: it calls its shim, and the
shim reads :data:`CURRENT`.  When no context is active (the default),
or none of its faults is due at this occurrence, the shim runs the
plain syscall sequence, so a disarmed run executes exactly the path the
chaos checker grades.  A context is activated either programmatically
(:func:`activate` / :func:`injected`) or by setting ``SECPB_ENVFAULT``
to a fault-plan JSON file (or inline JSON), which installs the plan at
import time in every process — including forked pool workers, which is
how worker-side faults (``worker_sigkill``) reach their targets.

Firing is bookkept per op name: each call to
:meth:`EnvFaultContext.fire` increments that op's occurrence counter
and returns the matching :class:`~repro.envfault.plan.FaultSpec` (or
``None``).  Every fired fault is recorded so checkers and the chaos CLI
can report exactly which faults a run absorbed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from contextlib import contextmanager

from .plan import FaultPlan, FaultSpec, PlanError, load_plan

ENVFAULT_ENV = "SECPB_ENVFAULT"
"""Env var: a fault-plan JSON file path (or inline JSON) to activate."""


@dataclass(frozen=True)
class FiredFault:
    """One fault that actually fired: the spec plus where it landed."""

    op: str
    occurrence: int
    spec: FaultSpec


class EnvFaultContext:
    """Tracks op occurrences against a plan and reports what fired.

    ``scratch`` names a directory for cross-process one-shot markers
    (:meth:`claim_once`): forked pool workers each inherit their *own
    copy* of this context, so without coordination a ``worker_sigkill``
    at occurrence ``k`` would kill every worker generation forever and
    exhaust the runner's retry budget.  With a scratch directory, each
    ``(op, occurrence)`` kill is claimed atomically by exactly one
    process system-wide.
    """

    def __init__(self, plan: FaultPlan, scratch: Optional[str] = None):
        self.plan = plan
        self._scratch = scratch
        self._counts: Dict[str, int] = {}
        self.fired: List[FiredFault] = []

    def fire(self, op: str) -> Optional[FaultSpec]:
        """Record one occurrence of ``op``; return the fault due, if any."""
        occurrence = self._counts.get(op, 0)
        self._counts[op] = occurrence + 1
        for spec in self.plan.specs:
            if spec.op == op and spec.hits(occurrence):
                self.fired.append(FiredFault(op, occurrence, spec))
                return spec
        return None

    def claim_once(self, op: str, occurrence: int) -> bool:
        """Atomically claim a one-shot fault across processes.

        Returns ``True`` for the single process that wins the
        ``O_CREAT|O_EXCL`` race on the marker file (which then executes
        the fault); without a scratch directory there is no coordination
        and every process fires independently.
        """
        if self._scratch is None:
            return True
        marker = os.path.join(
            self._scratch, f"once_{op.replace('.', '_')}_{occurrence}"
        )
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True


#: The process-wide active context; ``None`` means faults are off.
CURRENT: Optional[EnvFaultContext] = None


def activate(context: EnvFaultContext) -> EnvFaultContext:
    """Install ``context`` as the process-wide fault context."""
    global CURRENT
    CURRENT = context
    return context


def due(op: str) -> Optional[FaultSpec]:
    """Count one occurrence of ``op`` against :data:`CURRENT`, if armed.

    Returns the fault due at this occurrence, or ``None`` — always
    ``None`` when the plane is off.  Every filesystem and pool-harvest
    shim starts here.
    """
    context = CURRENT
    return context.fire(op) if context is not None else None


@contextmanager
def injected(
    plan: FaultPlan, scratch: Optional[str] = None
) -> Iterator[EnvFaultContext]:
    """Activate a fresh context for ``plan`` for the duration of a block."""
    global CURRENT
    previous = CURRENT
    context = activate(EnvFaultContext(plan, scratch=scratch))
    try:
        yield context
    finally:
        CURRENT = previous


def _install_from_env() -> None:
    """Activate a plan from ``SECPB_ENVFAULT`` at import, loudly on error."""
    value = os.environ.get(ENVFAULT_ENV, "").strip()
    if not value or value == "0":
        return
    try:
        plan = load_plan(value)
    except PlanError as exc:
        # A misconfigured fault plane must never be mistaken for "off".
        raise RuntimeError(f"{ENVFAULT_ENV} is set but unusable: {exc}") from exc
    # A file-based plan gets one-shot markers next to the plan file, so
    # worker kills coordinate even across independently spawned runs.
    scratch = None
    if not value.lstrip().startswith("{"):
        scratch = os.path.dirname(os.path.abspath(value))
    activate(EnvFaultContext(plan, scratch=scratch))


_install_from_env()
