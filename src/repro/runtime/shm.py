"""Zero-copy shared-memory trace plane: publish once, attach everywhere.

The parallel runner's workers are forked processes with process-local
trace stores; before this module every worker *rebuilt* each
``(benchmark, num_ops, seed)`` trace it touched, paying the full
vectorized-generation cost ``workers`` times per trace.  The plane moves
that work off the critical path: the parent materializes each trace
once, copies its raw NumPy columns into a
:class:`multiprocessing.shared_memory.SharedMemory` segment, and workers
attach **read-only, zero-copy** views — no rebuild, no pickle of
megabyte columns, one physical copy of every trace on the machine.

Roles and lifecycle (who creates, who unlinks):

* the **owner** (the parent process driving the sweep) publishes traces
  through the process-wide :class:`SharedTraceRegistry` singleton
  (:func:`shared_registry`).  Publication is idempotent per trace key
  and fingerprinted with the store's SHA-256 digest.  The owner — and
  only the owner — unlinks: :func:`cleanup_shared_registry` runs at
  interpreter exit (``atexit``) and on the durability layer's
  second-signal emergency path
  (:func:`repro.durability.register_emergency_cleanup`), so neither a
  clean exit, a SIGTERM checkpoint, nor a panicked double-SIGTERM leaks
  ``/dev/shm`` segments.  Segment names embed the owner pid
  (``secpb_shm_<pid>_...``) so tests and operators can audit residue
  per process.
* **attachers** (pool workers) learn the published manifest via
  :func:`announce`, which each batch's :class:`TraceAttachSetup` calls
  before its first task, and :func:`attach_trace` maps a segment
  into a :class:`~repro.workloads.trace.Trace` of read-only views, after
  re-hashing the mapped bytes against the published digest.  Attachers
  **never** ``close()`` or ``unlink()``: live NumPy views pin the
  mapping (``close`` would raise ``BufferError``), and the OS reclaims
  worker mappings at process exit.  Unlinking by the owner while
  attachers hold views is safe — POSIX keeps the mapping alive until the
  last reference drops.

A missing segment (the owner already cleaned up) is never an error:
:func:`attach_trace` makes one attempt and returns ``None``, so the
trace store falls back to deterministic regeneration and the plane can
be torn down at any moment without affecting results.  Waiting and
trying again could not help: the owner publishes every segment of a run
before it submits the first batch, and unlinks only at cleanup, so a
segment that is missing once stays missing.
"""

from __future__ import annotations

import atexit
import logging
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from ..durability import register_emergency_cleanup
from ..workloads.trace import Trace

logger = logging.getLogger(__name__)

TraceKey = Tuple[str, int, int]

#: Column offsets inside a segment are padded to this many bytes so every
#: dtype (int64 included) maps aligned.
_ALIGN = 16

_SEGMENT_PREFIX = "secpb_shm_"


def segment_prefix(pid: Optional[int] = None) -> str:
    """The ``/dev/shm`` name prefix for segments owned by ``pid``.

    Leak tests scan ``/dev/shm`` for this prefix after a run exits; zero
    matches means the owner's cleanup ran on every exit path.
    """
    return f"{_SEGMENT_PREFIX}{os.getpid() if pid is None else pid}_"


@dataclass(frozen=True)
class TraceSegmentInfo:
    """Picklable descriptor of one published trace segment.

    ``columns`` records the layout as ``(field, dtype, offset, length)``
    per trace column, in :class:`~repro.workloads.trace.Trace` field
    order; ``digest`` is the store's SHA-256 trace fingerprint, verified
    again on attach so a torn or recycled segment can never silently
    feed a simulation.
    """

    key: TraceKey
    segment: str
    trace_name: str
    digest: str
    columns: Tuple[Tuple[str, str, int, int], ...]
    size: int


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _column_arrays(trace: Trace) -> List[Tuple[str, NDArray]]:
    return [
        ("is_store", np.ascontiguousarray(trace.is_store)),
        ("block_addr", np.ascontiguousarray(trace.block_addr)),
        ("gap", np.ascontiguousarray(trace.gap)),
    ]


class SharedTraceRegistry:
    """Owner-side registry of published trace segments (one per process).

    Holds the live :class:`SharedMemory` objects so the buffers stay
    mapped for the owner's lifetime, and unlinks every segment exactly
    once in :meth:`cleanup`.  Publication is idempotent by trace key:
    re-publishing a key returns the existing descriptor.
    """

    def __init__(self) -> None:
        self._segments: Dict[TraceKey, Tuple[object, TraceSegmentInfo]] = {}
        self._sequence = 0
        self.published = 0
        self.published_bytes = 0

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, key: TraceKey) -> bool:
        return key in self._segments

    def stats(self) -> Dict[str, int]:
        """Segment count and resident bytes (for gauges and tests)."""
        return {"segments": len(self._segments), "bytes": self.published_bytes}

    def manifest(self) -> Tuple[TraceSegmentInfo, ...]:
        """Descriptors for every published segment, in publication order."""
        return tuple(info for _, info in self._segments.values())

    def publish(self, key: TraceKey, trace: Trace, digest: str) -> TraceSegmentInfo:
        """Copy ``trace``'s columns into a fresh segment (idempotent).

        The owner keeps the segment mapped until :meth:`cleanup`; the
        returned descriptor is pure picklable data for :func:`announce`.
        """
        existing = self._segments.get(key)
        if existing is not None:
            return existing[1]
        from multiprocessing.shared_memory import SharedMemory
        from multiprocessing import resource_tracker

        # Start the resource tracker from the owner *before* any pool
        # worker forks, so children inherit its pipe and a worker attach
        # never spawns a private tracker that unlinks segments early.
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without tracker
            pass

        arrays = _column_arrays(trace)
        layout: List[Tuple[str, str, int, int]] = []
        offset = 0
        for field, array in arrays:
            offset = _aligned(offset)
            layout.append((field, str(array.dtype), offset, len(array)))
            offset += array.nbytes
        size = max(1, offset)

        segment = None
        info: Optional[TraceSegmentInfo] = None
        name = ""
        while segment is None:
            self._sequence += 1
            name = f"{segment_prefix()}{self._sequence}_{digest[:8]}"
            try:
                segment = SharedMemory(create=True, size=size, name=name)
                for (field, _dtype, start, _length), (_f, array) in zip(
                    layout, arrays
                ):
                    raw = array.tobytes()
                    segment.buf[start:start + len(raw)] = raw
                info = TraceSegmentInfo(
                    key=key,
                    segment=name,
                    trace_name=trace.name,
                    digest=digest,
                    columns=tuple(layout),
                    size=size,
                )
            except FileExistsError:
                segment = None  # stale name from an unrelated owner: re-key
            except BaseException:
                # Never leave a half-written named segment behind.
                segment.close()
                segment.unlink()
                raise
        assert info is not None
        self._segments[key] = (segment, info)
        self.published += 1
        self.published_bytes += size
        logger.debug("published trace %s as %s (%d bytes)", key, name, size)
        return info

    def cleanup(self) -> int:
        """Close and unlink every owned segment; returns how many.

        Idempotent and tolerant: a segment already gone (a resource
        tracker beat us to it after a crash) is not an error.
        """
        removed = 0
        for segment, info in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - owner holds no views
                pass
            try:
                segment.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        self._segments.clear()
        self.published_bytes = 0
        return removed


_REGISTRY: Optional[SharedTraceRegistry] = None


def shared_registry() -> SharedTraceRegistry:
    """The process-wide owner registry (created on first use)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = SharedTraceRegistry()
    return _REGISTRY


def cleanup_shared_registry() -> int:
    """Unlink everything the process-wide registry owns (idempotent)."""
    if _REGISTRY is None:
        return 0
    return _REGISTRY.cleanup()


atexit.register(cleanup_shared_registry)
register_emergency_cleanup(cleanup_shared_registry)


# --- attach side (pool workers) -------------------------------------------

#: Trace key -> published descriptor, as announced to this process.
_ANNOUNCED: Dict[TraceKey, TraceSegmentInfo] = {}

#: Segment name -> (SharedMemory, Trace).  Holding the SharedMemory
#: object keeps the mapping alive (its finalizer would otherwise race
#: the live NumPy views); attachers never close or unlink — the OS
#: reclaims the mapping when the worker exits.
_ATTACHED: Dict[str, Tuple[object, Trace]] = {}

#: Handles evicted by :func:`reset_attachments` but kept referenced for
#: the process lifetime: finalizing a SharedMemory under a still-live
#: NumPy view raises BufferError from its ``__del__``.
_RETIRED: List[object] = []


def announce(manifest: Sequence[TraceSegmentInfo]) -> None:
    """Record published segments so :func:`attach_trace` can find them.

    Delivered to workers by each batch's setup hook (a warm pool
    outlives any one manifest).  Idempotent; newer descriptors for a key
    replace older ones.
    """
    for info in manifest:
        _ANNOUNCED[info.key] = info


def announced_keys() -> Tuple[TraceKey, ...]:
    """Keys this process could currently attach (tests/diagnostics)."""
    return tuple(_ANNOUNCED)


def reset_attachments() -> None:
    """Forget announcements and attached views (test isolation only).

    The evicted :class:`SharedMemory` handles are *retired*, not
    dropped: their finalizer would close the mapping under any NumPy
    view a caller still holds (``BufferError``).  Retired handles cost
    one mapping each until process exit, when the OS reclaims them —
    the owner's ``unlink`` already freed the names.
    """
    _ANNOUNCED.clear()
    _RETIRED.extend(segment for segment, _ in _ATTACHED.values())
    _ATTACHED.clear()


def attach_trace(key: TraceKey) -> Optional[Tuple[Trace, str]]:
    """Map an announced segment as a read-only Trace, or ``None``.

    Returns ``(trace, digest)`` on success — the digest is re-computed
    from the mapped bytes and must equal the published fingerprint.  Any
    failure (key never announced, segment unlinked, digest mismatch)
    returns ``None`` and the caller regenerates from the deterministic
    spec; a stale announcement is dropped so the fallback is paid once,
    not per lookup.  A missing segment is not retried: the owner
    published it before submitting any batch, so it is gone for good.
    """
    info = _ANNOUNCED.get(key)
    if info is None:
        return None
    cached = _ATTACHED.get(info.segment)
    if cached is not None:
        return cached[1], info.digest
    from multiprocessing.shared_memory import SharedMemory

    try:
        segment = SharedMemory(name=info.segment)
    except FileNotFoundError:
        logger.debug(
            "segment %s gone; rebuilding %s locally", info.segment, key
        )
        del _ANNOUNCED[key]
        return None
    columns: Dict[str, NDArray] = {}
    for field, dtype, offset, length in info.columns:
        array: NDArray = np.frombuffer(
            segment.buf, dtype=np.dtype(dtype), count=length, offset=offset
        )
        array.flags.writeable = False
        columns[field] = array
    trace = Trace(
        name=info.trace_name,
        is_store=columns["is_store"],
        block_addr=columns["block_addr"],
        gap=columns["gap"],
    )
    from ..workloads.store import trace_digest

    if trace_digest(trace) != info.digest:
        # A recycled or torn segment must never feed a simulation.
        logger.warning(
            "segment %s failed digest verification; rebuilding %s locally",
            info.segment, key,
        )
        del _ANNOUNCED[key]
        # Keep the handle referenced so its finalizer cannot race the
        # (now unreachable) views; the worker's exit reclaims it.
        _ATTACHED[f"!{info.segment}"] = (segment, trace)
        return None
    _ATTACHED[info.segment] = (segment, trace)
    return trace, info.digest


@dataclass(frozen=True)
class TraceAttachSetup:
    """Picklable per-batch worker setup: announce the owner's manifest.

    The runner ships one of these with every batch; it is the only way
    a worker learns the manifest, so workers of a warm pool also see
    traces published *after* the pool was created.
    """

    manifest: Tuple[TraceSegmentInfo, ...]

    def __call__(self) -> None:
        announce(self.manifest)
