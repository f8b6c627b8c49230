"""The process-wide warm worker pool every sweep entry point shares.

Before this module each :func:`repro.analysis.runner.run_tasks` call
constructed and tore down its own ``ProcessPoolExecutor`` — a
fork-and-import tax paid per experiment call that dominates short
sweeps (``run_fig7`` alone makes one call per SecPB size).  The plane
keeps **one process-wide pool** warm across calls: the runner acquires
it through :func:`get_shared_pool`, which recycles the pool only when
it is unhealthy or its worker count changed.

Health-checked recycling preserves the hardening and durability
semantics layered on the runner:

* a **wedged worker** (per-task timeout fired) or a **crashed worker**
  (``BrokenProcessPool``) marks the pool unhealthy; the current run
  finishes its harvest/retry with a fresh pool and the next acquisition
  forks a new generation, without penalizing every healthy run with a
  cold pool;
* an **interrupt** (stop token) also retires the pool after salvage, so
  a checkpointed ``--resume`` starts from a clean generation;
* every batch announces the owner's current zero-copy trace manifest
  (:mod:`repro.runtime.shm`) before its first task, so a warm pool
  never serves stale attachments.

All pool construction in the tree lives in this module (and all
segment creation in :mod:`.shm`) — lint rule SPB404 enforces it.
"""

from __future__ import annotations

import atexit
import logging
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional

logger = logging.getLogger(__name__)


#: Pools constructed since process start (generation counter; tests use
#: it to assert reuse — an unchanged count across calls means no forks).
_GENERATION = 0


class WorkerPool:
    """A ``ProcessPoolExecutor`` with health state and a generation tag.

    ``healthy`` latches False on timeout/crash/interrupt; an unhealthy
    pool is never reused.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        global _GENERATION
        _GENERATION += 1
        self.workers = workers
        self.generation = _GENERATION
        self.healthy = True
        self.runs = 0
        # Publishing (owner side) starts the multiprocessing resource
        # tracker before the first fork; make sure of it here too, so
        # worker-side attaches always talk to the inherited tracker
        # instead of spawning per-worker trackers that would unlink
        # live segments when a worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without tracker
            pass
        self._executor = ProcessPoolExecutor(max_workers=workers)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        return self._executor.submit(fn, *args)

    def mark_unhealthy(self) -> None:
        self.healthy = False

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self.healthy = False
        self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "healthy" if self.healthy else "unhealthy"
        return (
            f"WorkerPool(workers={self.workers}, gen={self.generation}, "
            f"runs={self.runs}, {state})"
        )


_SHARED: Optional[WorkerPool] = None


def get_shared_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool, recycled only when it cannot serve.

    Reuse requires a healthy pool with the same worker count; anything
    else shuts the old pool down (without waiting — a wedged worker must
    not block the caller) and forks a new generation, so a crashed pool
    is never handed out twice.
    """
    global _SHARED
    pool = _SHARED
    if pool is not None and (not pool.healthy or pool.workers != workers):
        pool.shutdown(wait=False, cancel_futures=True)
        _SHARED = pool = None
    if pool is None:
        pool = WorkerPool(workers)
        _SHARED = pool
        logger.debug("forked worker pool generation %d (%d workers)",
                     pool.generation, workers)
    pool.runs += 1
    return pool


def discard_shared_pool(pool: WorkerPool) -> None:
    """Retire ``pool`` if it is the shared one (timeout/crash/interrupt)."""
    global _SHARED
    pool.shutdown(wait=False, cancel_futures=True)
    if _SHARED is pool:
        _SHARED = None


def shutdown_shared_pool(wait: bool = True) -> None:
    """Tear down the warm pool (atexit, or tests forcing a cold start)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown(wait=wait, cancel_futures=True)
        _SHARED = None


def pool_stats() -> Dict[str, int]:
    """Observability snapshot: current pool shape and fork generation."""
    pool = _SHARED
    return {
        "generation": 0 if pool is None else pool.generation,
        "workers": 0 if pool is None else pool.workers,
        "runs": 0 if pool is None else pool.runs,
        "pools_created": _GENERATION,
        "healthy": int(pool is not None and pool.healthy),
    }


atexit.register(shutdown_shared_pool)
