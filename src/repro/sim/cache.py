"""Set-associative cache model with persist-aware block states.

:class:`Cache` has two users:

* **The metadata caches** (:mod:`repro.security.metadata_cache`): hit/miss
  classification with true LRU replacement for the CTR$, MAC$ and BMT$.
* **The reference hierarchy**: :class:`repro.sim.hierarchy.MemoryHierarchy`
  replays a trace op by op through an L1D, an L2 and an LLC built from
  this class.  The timing models read the same outcomes from the
  level-at-a-time replay of :func:`repro.sim.hierarchy.front_end`, which
  the tests compare against it.

Section IV-C of the paper modifies the cache protocol so that dirty blocks
from the persistent region are held in a special *persist-dirty* state
whose eviction is **silently discarded** (the SecPB guarantees the data
reaches PM, so the writeback is redundant); :class:`BlockState` models it.

A set is built where an access first reaches it, so a cache costs nothing
per set until it is used: every secure run builds the three metadata
caches, and no timing model touches the MAC$ or the BMT$.

Addresses are byte addresses; the cache operates on block-aligned tags.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .config import CacheConfig
from .stats import StatsCollector


class BlockState(enum.Enum):
    """Coherence/persistence state of a cached block (MESI-lite).

    ``PERSIST_DIRTY`` is the paper's special state: modified data whose
    persistence is already guaranteed by the SecPB, so eviction discards it
    silently instead of writing it back (Sec. IV-C-a).
    """

    INVALID = "I"
    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"
    PERSIST_DIRTY = "PD"


DIRTY_STATES = frozenset({BlockState.MODIFIED, BlockState.PERSIST_DIRTY})


class CacheBlock:
    """One resident cache block.

    A plain ``__slots__`` class rather than a dataclass: one instance is
    allocated per fill on the simulator's hot path, and dropping the
    per-instance ``__dict__`` measurably cuts allocation cost and memory.
    """

    __slots__ = ("block_addr", "state")

    def __init__(self, block_addr: int, state: BlockState):
        self.block_addr = block_addr
        self.state = state

    def __repr__(self) -> str:
        return f"CacheBlock(block_addr={self.block_addr!r}, state={self.state!r})"

    @property
    def dirty(self) -> bool:
        return self.state in DIRTY_STATES


class AccessOutcome(enum.Enum):
    """Result classification of a cache access."""

    HIT = "hit"
    MISS = "miss"


@dataclass
class EvictionRecord:
    """Describes a block pushed out by a fill."""

    block_addr: int
    state: BlockState

    @property
    def writeback_required(self) -> bool:
        return self.state is BlockState.MODIFIED


def counter_name(config: CacheConfig, event: str) -> str:
    """The counter under which a cache built from ``config`` counts ``event``."""
    return f"cache.{config.name}.{event}"


class Cache:
    """A set-associative, write-back, write-allocate cache with true LRU.

    Each set is an :class:`collections.OrderedDict` mapping block address to
    :class:`CacheBlock`; moving a key to the end marks it most-recently-used,
    so the LRU victim is always the first key.
    """

    def __init__(self, config: CacheConfig, stats: Optional[StatsCollector] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        # A set is built where ``access`` first reaches it (None until
        # then): most runs never touch most sets of their metadata caches.
        self._sets: List[Optional[OrderedDict]] = [None] * config.num_sets
        self._block_shift = config.block_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Counter names are fixed per cache instance; resolve them once
        # instead of rebuilding "cache.<name>.<event>" strings per access.
        self._count_hit = self.stats.counter(counter_name(config, "hits"))
        self._count_miss = self.stats.counter(counter_name(config, "misses"))
        self._count_writeback = self.stats.counter(counter_name(config, "writebacks"))
        self._count_silent_discard = self.stats.counter(
            counter_name(config, "silent_discards")
        )

    # Address helpers ------------------------------------------------------

    def block_address(self, addr: int) -> int:
        """Block-align a byte address."""
        return addr >> self._block_shift

    def _set_index(self, block_addr: int) -> int:
        return block_addr % self.config.num_sets

    # Queries ----------------------------------------------------------------

    def lookup(self, addr: int) -> Optional[CacheBlock]:
        """Return the resident block for ``addr`` (no LRU update), else None."""
        block_addr = self.block_address(addr)
        cache_set = self._sets[self._set_index(block_addr)]
        return cache_set.get(block_addr) if cache_set is not None else None

    def contains(self, addr: int) -> bool:
        """True when the block holding ``addr`` is resident and valid."""
        block = self.lookup(addr)
        return block is not None and block.state is not BlockState.INVALID

    def _built_sets(self) -> Iterator[OrderedDict]:
        return (cache_set for cache_set in self._sets if cache_set is not None)

    def occupancy(self) -> int:
        """Number of valid resident blocks."""
        return sum(len(s) for s in self._built_sets())

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """Iterate over all resident blocks (any set order)."""
        for cache_set in self._built_sets():
            yield from cache_set.values()

    def dirty_blocks(self) -> Iterator[CacheBlock]:
        """Iterate over blocks in a dirty state (M or PD)."""
        return (b for b in self.iter_blocks() if b.dirty)

    # Mutation ---------------------------------------------------------------

    def access(
        self,
        addr: int,
        is_write: bool,
        persist_region: bool = False,
    ) -> Tuple[AccessOutcome, Optional[EvictionRecord]]:
        """Perform a load or store access.

        On a miss the block is allocated (write-allocate) and the LRU victim,
        if any, is reported so the caller can model the writeback (or its
        silent discard for PERSIST_DIRTY victims).

        Args:
            addr: byte address accessed.
            is_write: True for a store.
            persist_region: True when the address lies in the persistent
                region, in which case stores install the block in the
                PERSIST_DIRTY (silently-discardable) state.

        Returns:
            (outcome, eviction) — eviction is None when no victim was pushed.
        """
        block_addr = addr >> self._block_shift
        index = block_addr % self._num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()

        block = cache_set.get(block_addr)
        if block is not None:
            cache_set.move_to_end(block_addr)
            if is_write:
                block.state = (
                    BlockState.PERSIST_DIRTY if persist_region else BlockState.MODIFIED
                )
            self._count_hit()
            return AccessOutcome.HIT, None

        self._count_miss()
        eviction = None
        if len(cache_set) >= self._ways:
            victim_addr, victim = cache_set.popitem(last=False)
            eviction = EvictionRecord(victim_addr, victim.state)
            if eviction.writeback_required:
                self._count_writeback()
            elif victim.state is BlockState.PERSIST_DIRTY:
                self._count_silent_discard()

        if is_write:
            state = BlockState.PERSIST_DIRTY if persist_region else BlockState.MODIFIED
        else:
            state = BlockState.EXCLUSIVE
        cache_set[block_addr] = CacheBlock(block_addr, state)
        return AccessOutcome.MISS, eviction

    def downgrade(self, addr: int) -> None:
        """Move a block to SHARED (remote read), keeping it resident."""
        block = self.lookup(addr)
        if block is not None:
            block.state = BlockState.SHARED

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        """Remove the block holding ``addr``; returns it if it was resident."""
        block_addr = self.block_address(addr)
        cache_set = self._sets[self._set_index(block_addr)]
        return cache_set.pop(block_addr, None) if cache_set is not None else None

    def flush_all(self) -> int:
        """Drop every block (models volatile caches losing power).

        Returns:
            Number of MODIFIED blocks whose contents were lost — in a
            correctly configured persistent hierarchy this must be zero for
            persistent-region data, because such data is held PERSIST_DIRTY
            (already persisted via the SecPB).
        """
        lost = sum(1 for b in self.iter_blocks() if b.state is BlockState.MODIFIED)
        for cache_set in self._built_sets():
            cache_set.clear()
        return lost
