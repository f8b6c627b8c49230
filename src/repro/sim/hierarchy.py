"""The assembled volatile memory hierarchy (L1D / L2 / LLC over NVM).

The cache stack gives the SecPB simulator two things:

* latency classification of loads and stores (which level hits), and
* persist-aware dirty-state handling: stores to the persistent region are
  installed in the silently-discardable PERSIST_DIRTY state because the
  SecPB, not the cache, owns their durability (paper Sec. IV-C-a).

A hierarchy is one core's private stack (the paper evaluates one OOO
core, Table I).  The multi-SecPB coherence protocol of Sec. IV-C acts on
the SecPBs only (:mod:`repro.core.coherence`), never on a cache, so a
multi-core run gives each core its own trace's replay.

:func:`front_end` is every timing model's view of the stack: the
single-core loop's and each core's in the multi-core loop.  An op's
L1/L2/LLC outcome depends on no timestamp and on no SecPB or metadata
state, only on the trace and the cache geometry; ``persist_region`` only
names what a dirty L1D eviction is.  So a trace is replayed once per
geometry (:func:`level_passes`), memoized on the trace, and every
configuration that shares the geometry (schemes, SecPB sizes, BMF cuts,
SP, flush, any warmup) reads that replay instead of replaying the stack
again; a front end only splits its miss lists at the warmup op.

The replay streams the trace through one level at a time: the L1D pass
visits every op, the L2 pass the ops that missed the L1D, in order, and
the LLC pass the ops that missed the L2.  That is exact because a level's
contents depend only on the accesses that reach it: no level includes
another, nothing is back-invalidated, and every access below the L1D is
a read fill (an L1D writeback is counted, not installed below), so the
L2 and the LLC never hold a dirty line.  :class:`MemoryHierarchy` is the
op-by-op reference: it replays the same stack through live
:class:`~repro.sim.cache.Cache` objects, one op at a time, and the tests
hold the front end equal to it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import OrderedDict
from typing import Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..workloads.trace import Trace
from .cache import AccessOutcome, Cache, counter_name
from .config import CACHE_BLOCK_BYTES, CacheConfig, SystemConfig
from .stats import StatsCollector


_STORE = 4
"""A store's outcome in :func:`_replay`: it reads no latency (``0``)."""

_OP_TYPECODE, _OP_DTYPE = "i", np.intc
"""The miss lists' element type, a C ``int``: an op index in 4 bytes."""

_TRACE_BLOCK_SHIFT = CACHE_BLOCK_BYTES.bit_length() - 1
"""A trace's ``block_addr`` counts 64-byte blocks: its byte address is
``block_addr << _TRACE_BLOCK_SHIFT``."""


class MemoryHierarchy:
    """Three-level cache stack; a last-level miss reads the NVM."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        stats: Optional[StatsCollector] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.stats = stats if stats is not None else StatsCollector()
        self.l1 = Cache(self.config.l1, self.stats)
        self.l2 = Cache(self.config.l2, self.stats)
        self.l3 = Cache(self.config.l3, self.stats)
        # Hot-path constants and counters, resolved once per hierarchy:
        # load_latency/store_access run once per trace reference.
        self._l1_cycles = self.config.l1.access_cycles
        self._l2_cycles = self.config.l2.access_cycles
        self._l3_cycles = self.config.l3.access_cycles
        self._nvm_read_cycles = self.config.nvm_read_cycles
        self._l1_access = self.l1.access
        self._l2_access = self.l2.access
        self._l3_access = self.l3.access
        self._count_memory_read = self.stats.counter("hierarchy.memory_reads")
        self._count_victim_writeback = self.stats.counter("hierarchy.victim_writebacks")

    @staticmethod
    def geometry(config: SystemConfig) -> Tuple[Hashable, ...]:
        """The fields of ``config`` that a hierarchy reads.

        Two configurations with equal geometry build identical
        hierarchies and replays, so :func:`front_end` keys its memo on
        this.  Keep it in step with ``__init__`` and :func:`_replay`.
        """
        return (config.l1, config.l2, config.l3, config.nvm, config.clock_ghz)

    # Timing ------------------------------------------------------------------

    def load_latency(self, addr: int) -> int:
        """Cycles for a load to return data, filling caches along the way."""
        hit = AccessOutcome.HIT
        latency = self._l1_cycles
        outcome, _ = self._l1_access(addr, False)
        if outcome is hit:
            return latency

        latency += self._l2_cycles
        outcome, _ = self._l2_access(addr, False)
        if outcome is hit:
            return latency

        latency += self._l3_cycles
        outcome, _ = self._l3_access(addr, False)
        if outcome is hit:
            return latency

        self._count_memory_read()
        return latency + self._nvm_read_cycles

    def store_access(self, addr: int, persist_region: bool) -> Tuple[int, bool]:
        """Perform the cache side of a store (paper step 1).

        The store accesses L1D; on a miss the block is fetched through the
        hierarchy (write-allocate), which is also the fetch the SecPB needs
        for its own allocation of the same block (the two proceed in
        parallel per Sec. IV-B, so one latency covers both).

        Returns:
            (latency_cycles, l1_hit)
        """
        outcome, eviction = self._l1_access(addr, True, persist_region)
        latency = self._l1_cycles
        if outcome is AccessOutcome.HIT:
            return latency, True

        # Miss: charge the fill path. L2/L3 are probed as part of the fill.
        l2_outcome, _ = self._l2_access(addr, False)
        latency += self._l2_cycles
        if l2_outcome is AccessOutcome.MISS:
            l3_outcome, _ = self._l3_access(addr, False)
            latency += self._l3_cycles
            if l3_outcome is AccessOutcome.MISS:
                self._count_memory_read()
                latency += self._nvm_read_cycles
        if eviction is not None and eviction.writeback_required:
            # Non-persistent dirty victim: async writeback, no added latency
            # on the store path.
            self._count_victim_writeback()
        return latency, False


class LevelPasses(NamedTuple):
    """One trace's three level passes under one geometry (see :func:`_replay`).

    ``outcome[i]`` is how many levels op ``i`` missed, or ``_STORE``, and
    ``latency[o]`` the load latency of outcome ``o`` (``0`` for a store).
    Each miss list holds op indices in op order: the ops that missed the
    L1D, the L2 and the LLC, and the ops whose L1D fill evicted a dirty
    line.  Shared by every front end and load schedule of the trace and
    geometry, so nothing here may be mutated.
    """

    outcome: bytes
    latency: Tuple[int, ...]
    l1_misses: array
    l2_misses: array
    l3_misses: array
    dirty_evictions: array


class HierarchyFrontEnd(NamedTuple):
    """One trace's replay through the hierarchy (see :func:`front_end`).

    ``stats`` holds the hierarchy's counters over the measured region,
    with the collector's key-presence rule: a counter that fired only
    during warmup is present as ``0.0``, one that never fired is absent.
    Both fields are shared by every run that reads the front end, so
    neither may be mutated.
    """

    passes: LevelPasses
    stats: StatsCollector

    @property
    def load_latency(self) -> List[int]:
        """Op ``i``'s load latency in cycles, ``0`` for a store.

        A fresh list per call, kept by no memo: the single-core loop
        reads the outcomes through its load schedule and never needs it.
        It holds one int object per distinct latency: a miss's latency
        is not a cached small int, and a fresh object per miss would
        bloat it.
        """
        passes = self.passes
        return list(map(passes.latency.__getitem__, passes.outcome))


def front_end(
    trace: Trace, config: SystemConfig, persist_region: bool, warmup_ops: int
) -> HierarchyFrontEnd:
    """The hierarchy's outcome for ``trace``, from its geometry's one replay.

    Args:
        trace: the memory-reference trace.
        config: system configuration; only :meth:`MemoryHierarchy.geometry`
            matters.
        persist_region: whether the stores' lines are persist-dirty, as
            ``store_access`` takes it (False: volatile caches, as
            flush-based persistency has).
        warmup_ops: ops before the measured region; their counts are
            excluded from ``stats``, all of them when ``warmup_ops``
            reaches ``len(trace)``.
    """
    key = (MemoryHierarchy.geometry(config), persist_region, warmup_ops)
    # Memoized on the trace, beside the columns ``iter_ops`` keeps: a
    # trace is immutable once built, so a front end never goes stale, and
    # it goes away with its trace (e.g. on ``TraceStore.clear()``).
    memo = trace.__dict__.setdefault("_front_ends", {})
    front = memo.get(key)
    if front is None:
        passes = level_passes(trace, config)
        stats = _counters(trace, config, passes, persist_region, warmup_ops)
        front = memo[key] = HierarchyFrontEnd(passes, stats)
    return front


def level_passes(trace: Trace, config: SystemConfig) -> LevelPasses:
    """The level passes of ``trace`` under ``config``'s geometry, replayed once."""
    memo = trace.__dict__.setdefault("_level_passes", {})
    key = MemoryHierarchy.geometry(config)
    passes = memo.get(key)
    if passes is None:
        passes = memo[key] = _replay(trace, config)
    return passes


def _replay(trace: Trace, config: SystemConfig) -> LevelPasses:
    """Stream ``trace`` through the L1D, the L2 and the LLC, a level at a time."""
    stores, addrs, _gaps = trace.columns()
    l1_misses, dirty_evictions = _l1d_pass(config.l1, addrs, stores)
    l2_misses = _read_pass(config.l2, addrs, l1_misses)
    l3_misses = _read_pass(config.l3, addrs, l2_misses)

    outcome = np.zeros(len(addrs), dtype=np.uint8)
    for misses in (l1_misses, l2_misses, l3_misses):
        outcome[np.frombuffer(misses, dtype=_OP_DTYPE)] += 1
    outcome[np.asarray(trace.is_store, dtype=bool)] = _STORE
    l1_hit = config.l1.access_cycles
    l2_hit = l1_hit + config.l2.access_cycles
    l3_hit = l2_hit + config.l3.access_cycles
    latency = (l1_hit, l2_hit, l3_hit, l3_hit + config.nvm_read_cycles, 0)
    return LevelPasses(
        outcome.tobytes(), latency, l1_misses, l2_misses, l3_misses, dirty_evictions
    )


def _counters(
    trace: Trace,
    config: SystemConfig,
    passes: LevelPasses,
    persist_region: bool,
    warmup_ops: int,
) -> StatsCollector:
    """The hierarchy's counters over the ops from ``warmup_ops`` on.

    Every counter follows from the level passes' miss lists; an event is
    warmup when its op index is below ``warmup_ops``.
    """

    def count(ops: Sequence[int]) -> Tuple[int, int]:
        """Events at the sorted op indices ``ops``: (all, in warmup)."""
        return len(ops), bisect_left(ops, warmup_ops)

    events: List[Tuple[str, Tuple[int, int]]] = []
    accessed = count(range(len(passes.outcome)))
    for cache, misses in (
        (config.l1, passes.l1_misses),
        (config.l2, passes.l2_misses),
        (config.l3, passes.l3_misses),
    ):
        missed = count(misses)
        hits = (accessed[0] - missed[0], accessed[1] - missed[1])
        events.append((counter_name(cache, "hits"), hits))
        events.append((counter_name(cache, "misses"), missed))
        accessed = missed
    events.append(("hierarchy.memory_reads", accessed))
    # A dirty L1D victim holds a store's data.  In a persistent hierarchy
    # the SecPB already persisted it; volatile caches write it back, off
    # the store path when a store's fill evicted it.
    dirty_evictions = passes.dirty_evictions
    dirty = count(dirty_evictions)
    if persist_region:
        events.append((counter_name(config.l1, "silent_discards"), dirty))
    else:
        events.append((counter_name(config.l1, "writebacks"), dirty))
        stores = trace.columns()[0]
        by_stores = [op for op in dirty_evictions if stores[op]]
        events.append(("hierarchy.victim_writebacks", count(by_stores)))

    stats = StatsCollector()
    for name, (total, warmup) in events:
        # Present when the event fired anywhere in the trace, as 0.0 when
        # only in warmup: what a snapshot at the boundary and a subtract
        # at the end leave.
        if total:
            stats.add(name, float(total - warmup))
    return stats


def _lines(cache: CacheConfig, block_addrs: Iterable[int]) -> Iterable[int]:
    """Trace block addresses as ``cache``'s lines, as ``Cache.access`` maps them."""
    shift = cache.block_bytes.bit_length() - 1
    if shift == _TRACE_BLOCK_SHIFT:
        return block_addrs
    return ((addr << _TRACE_BLOCK_SHIFT) >> shift for addr in block_addrs)


def _l1d_pass(
    cache: CacheConfig, addrs: Sequence[int], stores: Sequence[bool]
) -> Tuple[array, array]:
    """The write-allocate L1D over every op.

    A set maps each resident line to its dirty bit, least recently used
    first.  A store's hit or fill leaves its line dirty, a load's fill
    leaves it clean and a load's hit keeps it as it was.

    Returns:
        (the ops that missed, the ops whose fill evicted a dirty line),
        each in op order.
    """
    num_sets, ways = cache.num_sets, cache.ways
    sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
    misses, dirty_evictions = array(_OP_TYPECODE), array(_OP_TYPECODE)
    miss, evict_dirty = misses.append, dirty_evictions.append
    for op, (line, is_store) in enumerate(zip(_lines(cache, addrs), stores)):
        resident = sets[line % num_sets]
        if line in resident:
            resident.move_to_end(line)
            if is_store:
                resident[line] = True
            continue
        miss(op)
        if len(resident) >= ways and resident.popitem(last=False)[1]:
            evict_dirty(op)
        resident[line] = is_store
    return misses, dirty_evictions


def _read_pass(cache: CacheConfig, addrs: Sequence[int], ops: array) -> array:
    """A level below the L1D over the fills of ``ops``, in order.

    Every fill is a read, so a set holds lines alone, least recently
    used first.  Returns the ops that missed, in op order.
    """
    num_sets, ways = cache.num_sets, cache.ways
    sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
    misses = array(_OP_TYPECODE)
    miss = misses.append
    for op, line in zip(ops, _lines(cache, map(addrs.__getitem__, ops))):
        resident = sets[line % num_sets]
        if line in resident:
            resident.move_to_end(line)
            continue
        miss(op)
        if len(resident) >= ways:
            resident.popitem(last=False)
        resident[line] = None
    return misses
