"""Tests for repro.sim.hierarchy — the assembled cache stack."""

from repro.sim.cache import BlockState
from repro.sim.hierarchy import MemoryHierarchy


class TestLoadLatency:
    def test_cold_load_goes_to_memory(self):
        h = MemoryHierarchy()
        latency = h.load_latency(0x1000)
        assert latency == 2 + 20 + 30 + 220

    def test_warm_load_hits_l1(self):
        h = MemoryHierarchy()
        h.load_latency(0x1000)
        assert h.load_latency(0x1000) == 2

    def test_l2_hit_after_l1_eviction(self):
        h = MemoryHierarchy()
        h.load_latency(0)
        # Evict block 0 from L1 by filling its set (128 sets, 8 ways).
        for i in range(1, 10):
            h.load_latency(i * 128 * 64)
        latency = h.load_latency(0)
        assert latency == 2 + 20  # L1 miss, L2 hit

    def test_memory_reads_counted(self):
        h = MemoryHierarchy()
        h.load_latency(0)
        h.load_latency(64)
        assert h.stats.get("hierarchy.memory_reads") == 2


class TestStorePath:
    def test_store_hit_is_l1_latency(self):
        h = MemoryHierarchy()
        h.store_access(0x40, persist_region=True)
        latency, hit = h.store_access(0x40, persist_region=True)
        assert hit
        assert latency == 2

    def test_store_miss_charges_fill_path(self):
        h = MemoryHierarchy()
        latency, hit = h.store_access(0x40, persist_region=True)
        assert not hit
        assert latency == 2 + 20 + 30 + 220

    def test_persistent_store_installs_persist_dirty(self):
        h = MemoryHierarchy()
        h.store_access(0x40, persist_region=True)
        assert h.l1.lookup(0x40).state is BlockState.PERSIST_DIRTY

    def test_volatile_store_installs_modified(self):
        h = MemoryHierarchy()
        h.store_access(0x40, persist_region=False)
        assert h.l1.lookup(0x40).state is BlockState.MODIFIED

