"""Process fault shims: worker SIGKILL and pool-breakage storms.

Worker-side SIGKILL is the one fault the harness cannot catch — the
process is simply gone mid-batch, exactly like the OOM killer or a node
eviction.  The runner's pool plane must absorb it (the shared pool's
health latch recycles the generation) and the resume path must replay
the lost batch byte-identically.

This module is, with :mod:`repro.durability.interrupt`, one of the two
sanctioned homes for raw ``os.kill`` in the tree (lint rule SPB504
enforces that); everything else must go through the cooperative
cancellation plane.
"""

from __future__ import annotations

import os
import signal

from concurrent.futures.process import BrokenProcessPool

from . import context as _context


def maybe_kill_worker(op: str) -> None:
    """SIGKILL the *current* process if a worker fault is due at ``op``.

    Called by pool workers at task boundaries; the parent observes a
    :class:`BrokenProcessPool` and must recover.  Each due kill is
    claimed through :meth:`~repro.envfault.context.EnvFaultContext.claim_once`
    so that (when the context carries a scratch directory) exactly one
    process system-wide dies per scheduled occurrence — forked workers
    all inherit the same counters, and without the claim every retry
    generation would re-execute the kill and defeat the retry budget
    the fault is supposed to exercise.
    """
    context = _context.CURRENT
    if context is None or context.fire(op) is None:
        return
    if context.claim_once(op, context.fired[-1].occurrence):
        os.kill(os.getpid(), signal.SIGKILL)


def maybe_break_pool(op: str) -> None:
    """Raise :class:`BrokenProcessPool` if a storm is due at ``op``.

    Models the executor reporting every in-flight future dead at
    harvest time without any worker of ours having crashed — the
    parent-side face of a worker storm.
    """
    if _context.due(op) is not None:
        raise BrokenProcessPool(f"envfault: injected pool breakage at {op}")
