"""Tests for repro.workloads.store — the memoizing trace store."""

import numpy as np
import pytest

from repro.workloads.spec import build_trace
from repro.workloads.store import DEFAULT_STORE, TraceStore, get_trace


class TestTraceStore:
    def test_cache_hit_returns_identical_trace(self):
        store = TraceStore()
        first = store.get("gamess", 1000, seed=1)
        second = store.get("gamess", 1000, seed=1)
        assert second is first
        assert store.hits == 1
        assert store.misses == 1

    def test_cached_trace_matches_direct_build(self):
        store = TraceStore()
        cached = store.get("povray", 800, seed=3)
        direct = build_trace("povray", 800, 3)
        assert np.array_equal(cached.is_store, direct.is_store)
        assert np.array_equal(cached.block_addr, direct.block_addr)
        assert np.array_equal(cached.gap, direct.gap)

    def test_different_seed_misses(self):
        store = TraceStore()
        a = store.get("gamess", 1000, seed=1)
        b = store.get("gamess", 1000, seed=2)
        assert a is not b
        assert store.misses == 2
        assert store.hits == 0

    def test_different_num_ops_misses(self):
        store = TraceStore()
        a = store.get("gamess", 1000, seed=1)
        b = store.get("gamess", 2000, seed=1)
        assert a is not b
        assert len(a) == 1000
        assert len(b) == 2000
        assert store.misses == 2

    def test_different_benchmark_misses(self):
        store = TraceStore()
        store.get("gamess", 500)
        store.get("povray", 500)
        assert store.misses == 2
        assert len(store) == 2

    def test_unknown_benchmark_raises_and_caches_nothing(self):
        store = TraceStore()
        with pytest.raises(KeyError, match="unknown benchmark"):
            store.get("not-a-benchmark", 100)
        assert len(store) == 0

    def test_clear_resets_contents_and_counters(self):
        store = TraceStore()
        store.get("gamess", 500)
        store.get("gamess", 500)
        store.clear()
        assert len(store) == 0
        assert store.hits == 0
        assert store.misses == 0


class TestDefaultStore:
    def test_get_trace_uses_default_store(self):
        baseline = len(DEFAULT_STORE)
        a = get_trace("leslie3d", 700, seed=9)
        b = get_trace("leslie3d", 700, seed=9)
        assert a is b
        assert DEFAULT_STORE.get("leslie3d", 700, 9) is a
        assert len(DEFAULT_STORE) == baseline + 1


class TestTraceIntegrity:
    """Per-trace SHA-256 checksums recorded by the memo."""

    def test_checksum_recorded_on_build(self):
        from repro.workloads.store import trace_digest

        store = TraceStore()
        trace = store.get("gamess", 500)
        assert store.checksum("gamess", 500) == trace_digest(trace)

    def test_verify_detects_in_place_mutation(self):
        store = TraceStore()
        trace = store.get("gamess", 500)
        assert store.verify("gamess", 500)
        trace.block_addr[0] += 1
        assert not store.verify("gamess", 500)
        trace.block_addr[0] -= 1
        assert store.verify("gamess", 500)

    def test_verify_false_for_absent_trace(self):
        assert not TraceStore().verify("gamess", 500)

    def test_digest_depends_on_columns_and_name(self):
        from repro.workloads.store import trace_digest

        a = build_trace("gamess", 500, 1)
        b = build_trace("gamess", 500, 2)
        assert trace_digest(a) != trace_digest(b)
        assert trace_digest(a) == trace_digest(build_trace("gamess", 500, 1))


class TestShmAttachIntegration:
    """The store's zero-copy attach path (repro.runtime.shm)."""

    KEY = ("hmmer", 288, 53)

    @pytest.fixture(autouse=True)
    def _plane(self):
        from repro.runtime.shm import reset_attachments

        reset_attachments()
        yield
        reset_attachments()

    def _announce_one(self):
        from repro.runtime.shm import SharedTraceRegistry, announce
        from repro.workloads.store import trace_digest

        registry = SharedTraceRegistry()
        trace = build_trace(*self.KEY)
        info = registry.publish(self.KEY, trace, trace_digest(trace))
        announce([info])
        return registry, trace

    def test_attach_counters_start_at_zero(self):
        store = TraceStore()
        assert store.built == 0
        assert store.attach_hits == 0

    def test_miss_adopts_announced_segment(self):
        registry, original = self._announce_one()
        try:
            store = TraceStore()
            trace = store.get(*self.KEY)
            assert store.attach_hits == 1
            assert store.built == 0
            assert np.array_equal(trace.block_addr, original.block_addr)
            # Adopted traces carry the published digest: verify() holds.
            assert store.verify(*self.KEY)
            # And the next lookup is a plain memo hit.
            assert store.get(*self.KEY) is trace
            assert store.attach_hits == 1
        finally:
            registry.cleanup()

    def test_store_counters_reports_default_store(self):
        from repro.workloads.store import store_counters

        built, attached = store_counters()
        assert built == DEFAULT_STORE.built
        assert attached == DEFAULT_STORE.attach_hits

    def test_clear_resets_attach_counters(self):
        registry, _ = self._announce_one()
        try:
            store = TraceStore()
            store.get(*self.KEY)
            assert store.attach_hits == 1
            store.clear()
            assert store.attach_hits == 0
            assert store.built == 0
        finally:
            registry.cleanup()
