"""The assembled volatile memory hierarchy (L1D / L2 / LLC over NVM).

:class:`MemoryHierarchy` provides the two services the SecPB simulator
needs from the cache stack:

* latency classification of loads and stores (which level hits), and
* persist-aware dirty-state handling: stores to the persistent region are
  installed in the silently-discardable PERSIST_DIRTY state because the
  SecPB, not the cache, owns their durability (paper Sec. IV-C-a).

A hierarchy is one core's private stack (the paper evaluates one OOO
core, Table I).  The multi-SecPB coherence protocol of Sec. IV-C acts on
the SecPBs only (:mod:`repro.core.coherence`), never on a cache, so a
multi-core run gives each core its own trace's replay.

:func:`front_end` is every timing model's view of the stack: the
single-core loop's and each core's in the multi-core loop.
``load_latency`` and ``store_access`` take no timestamp and touch no
SecPB or metadata state, so each op's L1/L2/LLC outcome depends only on
the trace, the cache geometry and ``persist_region``.  The front end
replays a trace through a fresh hierarchy once and keeps the per-op load
latencies and the hierarchy's counters, memoized on the trace; every
configuration that shares the geometry (schemes, SecPB sizes, BMF cuts,
SP) then reads them instead of replaying the stack again.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from ..workloads.trace import Trace
from .cache import AccessOutcome, Cache
from .config import SystemConfig
from .stats import StatsCollector


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
        """The fields of ``config`` that ``__init__`` reads.

        Two configurations with equal geometry build identical
        hierarchies, so :func:`front_end` keys its memo on this.  Keep it
        in step with ``__init__``.
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


class HierarchyFrontEnd(NamedTuple):
    """One trace's replay through the hierarchy (see :func:`front_end`).

    ``load_latency[i]`` is op ``i``'s load latency in cycles, ``0`` for a
    store.  ``stats`` holds the hierarchy's counters over the measured
    region, with the collector's key-presence rule: a counter that fired
    only during warmup is present as ``0.0``, one that never fired is
    absent.  Both are shared by every run that reads the front end, so
    neither may be mutated.
    """

    load_latency: List[int]
    stats: StatsCollector


def front_end(
    trace: Trace, config: SystemConfig, persist_region: bool, warmup_ops: int
) -> HierarchyFrontEnd:
    """The hierarchy's outcome for ``trace``, replayed at most once.

    Args:
        trace: the memory-reference trace.
        config: system configuration; only :meth:`MemoryHierarchy.geometry`
            matters.
        persist_region: passed to every store's ``store_access`` (False:
            volatile caches, as flush-based persistency has).
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
        front = memo[key] = _replay(trace, config, persist_region, warmup_ops)
    return front


def _replay(
    trace: Trace, config: SystemConfig, persist_region: bool, warmup_ops: int
) -> HierarchyFrontEnd:
    """Run ``trace`` through a fresh :class:`MemoryHierarchy` once."""
    stats = StatsCollector()
    hierarchy = MemoryHierarchy(config, stats)
    load_latency = hierarchy.load_latency
    store_access = hierarchy.store_access
    column: List[int] = []
    append = column.append
    # One int object per distinct latency: a miss's latency is not a
    # cached small int, and a fresh object per miss would bloat the column.
    interned: Dict[int, int] = {}
    intern = interned.setdefault
    warmup_stats: Dict[str, float] = {}
    for index, (is_store, block_addr, _gap) in enumerate(trace.iter_ops()):
        if index == warmup_ops:
            warmup_stats = stats.snapshot()
        if is_store:
            store_access(block_addr << 6, persist_region)
            append(0)
        else:
            latency = load_latency(block_addr << 6)
            append(intern(latency, latency))
    if warmup_ops >= len(column):
        # The measured region starts past the last op (a short core in a
        # multi-core run whose warmup counts rounds of the longest trace):
        # every count is warmup.
        warmup_stats = stats.snapshot()
    stats.subtract(warmup_stats)
    return HierarchyFrontEnd(column, stats)
