"""Memoizing trace store: build each benchmark trace once, share it.

Every timing experiment in :mod:`repro.analysis.experiments` iterates the
same 18 benchmark profiles; before this store each experiment (and each
scheme sweep inside one) rebuilt identical traces from scratch.  The store
memoizes materialized traces under the deterministic key
``(benchmark, num_ops, seed)`` — the exact inputs that fully determine a
profile's output — so a process builds any given trace at most once and
all experiments share it.

Traces are immutable once built (the simulators only read them), so
handing the *same object* to every caller is safe and the cache-hit path
is free.  Worker processes of the parallel runner
(:mod:`repro.analysis.runner`) each hold their own process-local default
store; a miss there first tries to **attach** a zero-copy read-only view
of a segment published by the parent through the shared-memory trace
plane (:mod:`repro.runtime.shm`) — the fast path for parallel sweeps —
before falling back to regeneration.  ``built`` counts actual
materializations and ``attach_hits`` counts zero-copy adoptions, so
tests can assert a trace is built at most once per run across the whole
pool.

Integrity: every memoized trace is fingerprinted with a SHA-256 digest
of its columns (:func:`trace_digest`).  A built trace is digested when
it is memoized; an attached one carries the digest its publisher
recorded, which :func:`repro.runtime.shm.attach_trace` re-checks against
the mapped bytes before the store adopts it.  :meth:`TraceStore.verify`
re-digests a resident trace against that record.

The store is a plain per-process memo: no eviction and no disk tier.  A
trace is a pure function of its key and cheap to rebuild, so a fresh
process simply builds (or attaches) what it needs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

import numpy as np

from .spec import build_trace
from .trace import Trace

TraceKey = Tuple[str, int, int]


def trace_digest(trace: Trace) -> str:
    """SHA-256 fingerprint of a trace's name and raw column bytes."""
    digest = hashlib.sha256()
    digest.update(trace.name.encode("utf-8"))
    for column in (trace.is_store, trace.block_addr, trace.gap):
        array = np.ascontiguousarray(column)
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


class TraceStore:
    """A memo of built traces keyed by (benchmark, num_ops, seed).

    Every trace stays resident for the life of the store — the full
    18-benchmark sweep at experiment scale is only a few hundred MB of
    int64 columns.
    """

    def __init__(self) -> None:
        self._traces: Dict[TraceKey, Trace] = {}
        self._checksums: Dict[TraceKey, str] = {}
        self.hits = 0
        self.misses = 0
        self.built = 0
        self.attach_hits = 0

    def __len__(self) -> int:
        return len(self._traces)

    def checksum(self, benchmark: str, num_ops: int, seed: int = 1) -> Optional[str]:
        """The digest recorded when (benchmark, num_ops, seed) was cached."""
        return self._checksums.get((benchmark, int(num_ops), int(seed)))

    def verify(self, benchmark: str, num_ops: int, seed: int = 1) -> bool:
        """Re-digest a resident trace against its recorded checksum.

        Returns True when the trace is resident and its columns still
        hash to the digest recorded at build/attach time; False when it is
        not resident or has been mutated in place.
        """
        key = (benchmark, int(num_ops), int(seed))
        trace = self._traces.get(key)
        recorded = self._checksums.get(key)
        if trace is None or recorded is None:
            return False
        return trace_digest(trace) == recorded

    def get(self, benchmark: str, num_ops: int, seed: int = 1) -> Trace:
        """The memoized trace for (benchmark, num_ops, seed).

        A hit returns the identical :class:`Trace` object previously
        built; a miss attaches a published shared-memory segment when
        one is announced (zero-copy, digest-verified), else materializes
        the profile via :func:`repro.workloads.spec.build_trace` and
        memoizes it.
        """
        key = (benchmark, int(num_ops), int(seed))
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            return trace
        self.misses += 1
        # Pool workers adopt the segment the parent published instead of
        # rebuilding.  The import waits for the first miss, so importing
        # the store does not load the execution plane.
        from ..runtime.shm import attach_trace

        attached = attach_trace(key)
        if attached is not None:
            trace, digest = attached
            self.attach_hits += 1
        else:
            trace = build_trace(benchmark, num_ops, seed)
            digest = trace_digest(trace)
            self.built += 1
        self._traces[key] = trace
        self._checksums[key] = digest
        return trace

    def clear(self) -> None:
        """Drop every cached trace and reset the hit/miss counters.

        What is memoized on a trace (its iteration columns, level passes
        and front ends, :func:`repro.sim.hierarchy.front_end`, and load
        schedules, :func:`repro.core.simulator.load_schedule`) goes with
        it.
        """
        self._traces.clear()
        self._checksums.clear()
        self.hits = 0
        self.misses = 0
        self.built = 0
        self.attach_hits = 0


DEFAULT_STORE = TraceStore()
"""Process-local default store shared by experiments and runner workers."""


def get_trace(benchmark: str, num_ops: int, seed: int = 1) -> Trace:
    """Fetch (building at most once) a trace from the default store."""
    return DEFAULT_STORE.get(benchmark, num_ops, seed)


def store_counters() -> Tuple[int, int]:
    """``(built, attach_hits)`` of the default store.

    Pool workers snapshot this around each batch; the runner aggregates
    the deltas into the ``runner.worker_traces_built`` /
    ``runner.worker_trace_attaches`` observability counters, which is
    how the regression tests prove a trace is materialized at most once
    per run.
    """
    return DEFAULT_STORE.built, DEFAULT_STORE.attach_hits
