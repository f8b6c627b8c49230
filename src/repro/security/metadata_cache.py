"""Volatile metadata caches at the memory controller (CTR$, MAC$, BMT$).

Table I configures three separate 128 KB, 8-way, 2-cycle metadata caches.
They are *volatile*: their dirty contents are part of what the late SecPB
schemes must regenerate or flush on battery after a crash.  Section IV-C-a
extends the silent-discard rule to them: a metadata block whose latest
value also lives in a SecPB is marked discardable.

The timing model only needs hit/miss classification with realistic reuse,
so this wraps :class:`repro.sim.cache.Cache` keyed by metadata-block
addresses in three disjoint synthetic address spaces.
"""

from __future__ import annotations

from typing import Optional

from ..sim.cache import AccessOutcome, Cache
from ..sim.config import SystemConfig
from ..sim.stats import StatsCollector


class MetadataCaches:
    """The three metadata caches plus their miss latency model.

    Metadata lives in NVM when not cached; a miss therefore costs an NVM
    read (plus the cache's own access latency).  Counter blocks are keyed
    by page index, MAC blocks by the data-block address of their first
    covered block (8 MACs of 64 B... modelled as one MAC block per 2 data
    blocks is unnecessary detail — we key 1:1 and size the cache in tag
    count), and BMT nodes by (level, index) folded into one integer.
    """

    def __init__(self, config: SystemConfig, stats: Optional[StatsCollector] = None):
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        self.counter_cache = Cache(config.counter_cache, self.stats)
        self.mac_cache = Cache(config.mac_cache, self.stats)
        self.bmt_cache = Cache(config.bmt_cache, self.stats)
        self._hit_cycles = config.counter_cache.access_cycles
        self._miss_cycles = config.counter_cache.access_cycles + config.nvm_read_cycles
        # Per-kind counter names resolved once; the counter cache is on
        # the per-store acceptance path, so its accessor avoids building
        # "mdc.<kind>.<event>" strings per access.
        self._count_counter_hit = self.stats.counter("mdc.counter.hits")
        self._count_counter_miss = self.stats.counter("mdc.counter.misses")
        self._count_mac_hit = self.stats.counter("mdc.mac.hits")
        self._count_mac_miss = self.stats.counter("mdc.mac.misses")
        self._count_bmt_hit = self.stats.counter("mdc.bmt.hits")
        self._count_bmt_miss = self.stats.counter("mdc.bmt.misses")
        self._counter_block_bytes = config.counter_cache.block_bytes
        self._counter_cache_access = self.counter_cache.access

    def _access(self, cache: Cache, key: int, count_hit, count_miss) -> int:
        outcome, _ = cache.access(key * cache.config.block_bytes, is_write=False)
        if outcome is AccessOutcome.HIT:
            count_hit()
            return self._hit_cycles
        count_miss()
        return self._miss_cycles

    # One accessor per metadata type ------------------------------------

    def access_counter(self, page_index: int) -> int:
        """Access the counter block of a page; returns latency in cycles."""
        outcome, _ = self._counter_cache_access(
            page_index * self._counter_block_bytes, is_write=False
        )
        if outcome is AccessOutcome.HIT:
            self._count_counter_hit()
            return self._hit_cycles
        self._count_counter_miss()
        return self._miss_cycles

    def access_mac(self, block_addr: int) -> int:
        """Access the MAC of a data block; returns latency in cycles."""
        return self._access(
            self.mac_cache, block_addr, self._count_mac_hit, self._count_mac_miss
        )

    def access_bmt_node(self, level: int, index: int) -> int:
        """Access one BMT node; returns latency in cycles."""
        key = (level << 48) | index
        return self._access(
            self.bmt_cache, key, self._count_bmt_hit, self._count_bmt_miss
        )

    # Crash semantics ------------------------------------------------------

    def discard_volatile(self) -> None:
        """Power loss: metadata caches are SRAM and lose everything."""
        self.counter_cache.flush_all()
        self.mac_cache.flush_all()
        self.bmt_cache.flush_all()
