"""Deterministic OS-fault injection plane + crash-consistency checker.

``repro.envfault`` turns the ROADMAP's "handle as many scenarios as you
can imagine" north star on the harness itself: it injects the operating
system's failure modes — ENOSPC mid-journal-append, EIO on fsync, torn
writes, failed renames, worker SIGKILL storms — into the durability
layer and the runner's pool, deterministically and replayably, and then
*checks* that the harness's crash-safety invariants survive them.

Layout:

- :mod:`~repro.envfault.plan` — fault schedules keyed by
  ``(seed, op-occurrence)``; JSON round-trip; ``random_plan``.
- :mod:`~repro.envfault.context` — the process-wide armed context and
  the ``SECPB_ENVFAULT`` env gate (a leaf module; the shims read it).
- :mod:`~repro.envfault.fsfault` / :mod:`~repro.envfault.procfault` —
  the shims every injection site calls, armed or not: with no fault
  due they run the plain syscall, so there is one code path per site.
- :mod:`~repro.envfault.check` — the systematic crash-consistency
  sweep and the randomized chaos soak (``repro chaos``).  Imported
  lazily by the CLI; **not** re-exported here, because it pulls in
  :mod:`repro.fault` and :mod:`repro.analysis` and would destroy the
  leaf-ness that lets durability import this package.
"""

from __future__ import annotations

from .context import (
    ENVFAULT_ENV,
    EnvFaultContext,
    FiredFault,
    activate,
    injected,
)
from .plan import (
    ALL_KINDS,
    ALL_OPS,
    DEFAULT_HORIZON,
    FS_KINDS,
    KINDS_FOR_OP,
    PLAN_VERSION,
    PROC_KINDS,
    FaultPlan,
    FaultSpec,
    PlanError,
    load_plan,
    random_plan,
)

__all__ = [
    "ALL_KINDS",
    "ALL_OPS",
    "DEFAULT_HORIZON",
    "ENVFAULT_ENV",
    "EnvFaultContext",
    "FS_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "KINDS_FOR_OP",
    "PLAN_VERSION",
    "PROC_KINDS",
    "PlanError",
    "activate",
    "injected",
    "load_plan",
    "random_plan",
]
