"""Tests for repro.workloads — traces, generators, SPEC profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.spec import PROFILES, all_benchmarks, build_trace
from repro.workloads.synthetic import (
    hotspot_trace,
    pointer_chase_trace,
    streaming_trace,
    uniform_trace,
    zipf_trace,
)
from repro.workloads.trace import Trace


class TestTrace:
    def _trace(self):
        return Trace(
            "t",
            np.array([True, False, True]),
            np.array([1, 2, 1], dtype=np.int64),
            np.array([3, 0, 5], dtype=np.int32),
        )

    def test_lengths_validated(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace("t", np.array([True]), np.array([1, 2]), np.array([0]))

    def test_negative_gaps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace(
                "t",
                np.array([True]),
                np.array([1], dtype=np.int64),
                np.array([-1], dtype=np.int32),
            )

    # -1, -2 and -3 are the load schedule's end, warmup and first
    # verifying-load events: a store to one of them would run as that
    # event instead of as a store.
    @pytest.mark.parametrize("addr", [-1, -2, -3, -(2**40)])
    def test_negative_block_addresses_rejected(self, addr):
        with pytest.raises(ValueError, match="block addresses must be non-negative"):
            Trace(
                "t",
                np.array([True, True]),
                np.array([0, addr], dtype=np.int64),
                np.array([0, 0], dtype=np.int32),
            )

    def test_from_ops_rejects_negative_block_address(self):
        with pytest.raises(ValueError, match="block addresses must be non-negative"):
            Trace.from_ops("x", iter([(True, 5, 2), (True, -1, 0)]))

    def test_load_rejects_negative_block_address(self, tmp_path):
        # A trace file is input from outside the program.
        path = str(tmp_path / "bad.npz")
        np.savez_compressed(
            path,
            name=np.array("bad"),
            is_store=np.array([True, False]),
            block_addr=np.array([3, -2], dtype=np.int64),
            gap=np.array([0, 1], dtype=np.int32),
        )
        with pytest.raises(ValueError, match="block addresses must be non-negative"):
            Trace.load(path)

    def test_counts(self):
        trace = self._trace()
        assert len(trace) == 3
        assert trace.num_stores == 2
        assert trace.num_loads == 1
        assert trace.instructions == 3 + 8

    def test_store_density(self):
        trace = self._trace()
        assert trace.stores_per_kilo_instructions == pytest.approx(
            2000 / 11
        )

    def test_iter_ops_order_and_types(self):
        ops = list(self._trace().iter_ops())
        assert ops == [(True, 1, 3), (False, 2, 0), (True, 1, 5)]

    def test_head(self):
        head = self._trace().head(2)
        assert len(head) == 2
        assert head.num_stores == 1

    def test_concat(self):
        trace = self._trace()
        joined = trace.concat(trace)
        assert len(joined) == 6
        assert joined.instructions == 2 * trace.instructions

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = str(tmp_path / "t.npz")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == "t"
        assert list(loaded.iter_ops()) == list(trace.iter_ops())

    def test_from_ops(self):
        trace = Trace.from_ops("x", iter([(True, 5, 2), (False, 6, 0)]))
        assert len(trace) == 2
        assert trace.num_stores == 1

    def test_from_ops_empty(self):
        trace = Trace.from_ops("x", iter([]))
        assert len(trace) == 0
        assert trace.instructions == 0


class TestGenerators:
    def test_zipf_deterministic_under_seed(self):
        a = zipf_trace(500, 100, seed=3)
        b = zipf_trace(500, 100, seed=3)
        assert np.array_equal(a.block_addr, b.block_addr)
        c = zipf_trace(500, 100, seed=4)
        assert not np.array_equal(a.block_addr, c.block_addr)

    def test_zipf_respects_working_set(self):
        trace = zipf_trace(1000, working_set_blocks=50, seed=1)
        assert trace.block_addr.max() < 50
        assert trace.block_addr.min() >= 0

    def test_zipf_burst_creates_runs(self):
        trace = zipf_trace(
            1000, 1000, store_fraction=1.0, burst_length=4, seed=1
        )
        # All-store anchors with burst 4: consecutive equal addresses.
        repeats = (trace.block_addr[1:] == trace.block_addr[:-1]).mean()
        assert repeats > 0.5

    def test_zipf_store_fraction_zero_and_one(self):
        assert zipf_trace(200, 10, store_fraction=0.0, seed=1).num_stores == 0
        assert zipf_trace(200, 10, store_fraction=1.0, seed=1).num_loads == 0

    def test_zipf_invalid_params(self):
        with pytest.raises(ValueError):
            zipf_trace(10, 10, store_fraction=1.5)
        with pytest.raises(ValueError):
            zipf_trace(10, 10, burst_length=0)
        with pytest.raises(ValueError):
            zipf_trace(10, 0)

    def test_streaming_sequential_addresses(self):
        trace = streaming_trace(100, touches_per_block=4, seed=1)
        diffs = np.diff(trace.block_addr)
        assert set(diffs.tolist()) <= {0, 1}

    def test_streaming_write_blocks_all_stores(self):
        trace = streaming_trace(
            400, touches_per_block=4, write_block_fraction=1.0, seed=1
        )
        assert trace.num_loads == 0

    def test_streaming_invalid_params(self):
        with pytest.raises(ValueError):
            streaming_trace(10, touches_per_block=0)
        with pytest.raises(ValueError):
            streaming_trace(10, write_block_fraction=2.0)

    def test_hotspot_concentrates_references(self):
        trace = hotspot_trace(
            2000, hot_blocks=10, cold_blocks=10_000, hot_fraction=0.9, seed=1
        )
        hot_share = (trace.block_addr < 10).mean()
        assert 0.8 < hot_share < 1.0

    def test_hotspot_burst(self):
        trace = hotspot_trace(
            1000,
            hot_blocks=10,
            cold_blocks=100,
            store_fraction=1.0,
            burst_length=4,
            seed=1,
        )
        repeats = (trace.block_addr[1:] == trace.block_addr[:-1]).mean()
        assert repeats > 0.5

    def test_hotspot_invalid_params(self):
        with pytest.raises(ValueError):
            hotspot_trace(10, 1, 1, hot_fraction=1.5)
        with pytest.raises(ValueError):
            hotspot_trace(10, 1, 1, burst_length=0)

    def test_pointer_chase_is_load_heavy(self):
        trace = pointer_chase_trace(1000, 500, store_fraction=0.1, seed=1)
        assert trace.num_loads > trace.num_stores

    def test_uniform_spreads_addresses(self):
        trace = uniform_trace(2000, working_set_blocks=100, seed=1)
        assert len(np.unique(trace.block_addr)) > 80

    def test_base_block_offsets_addresses(self):
        trace = uniform_trace(100, 10, seed=1, base_block=1000)
        assert trace.block_addr.min() >= 1000

    @given(st.integers(1, 300), st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_generators_honour_num_ops(self, num_ops, working_set):
        assert len(zipf_trace(num_ops, working_set, seed=1)) == num_ops
        assert len(uniform_trace(num_ops, working_set, seed=1)) == num_ops


class TestSpecProfiles:
    def test_eighteen_benchmarks(self):
        assert len(all_benchmarks()) == 18

    def test_paper_quoted_benchmarks_present(self):
        for name in ("gamess", "povray", "astar", "bwaves", "gobmk"):
            assert name in PROFILES

    def test_every_profile_builds(self):
        for name in all_benchmarks():
            trace = build_trace(name, 500, seed=2)
            assert len(trace) == 500
            assert trace.name == name

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="available"):
            build_trace("nonexistent", 100)

    def test_profiles_deterministic(self):
        a = build_trace("gamess", 1000, seed=1)
        b = build_trace("gamess", 1000, seed=1)
        assert np.array_equal(a.block_addr, b.block_addr)

    def test_gamess_matches_paper_characterization(self):
        """Sec. VI-B: gamess has PPTI ~47.4 and NWPE ~2.1 at 32 entries."""
        from repro.core.simulator import SecurePersistencySimulator

        trace = build_trace("gamess", 40_000, seed=1)
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert 35 < result.stats["ppti"] < 75
        assert 1.7 < result.stats["nwpe"] < 2.6

    def test_povray_matches_paper_characterization(self):
        """Sec. VI-B: povray has PPTI ~38.8 and NWPE ~17.6."""
        from repro.core.simulator import SecurePersistencySimulator

        trace = build_trace("povray", 40_000, seed=1)
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert 28 < result.stats["ppti"] < 52
        assert 12 < result.stats["nwpe"] < 24

    def test_bwaves_nwpe_insensitive_to_capacity(self):
        """Sec. VI-D: bwaves' NWPE barely moves with SecPB size."""
        from repro.core.simulator import SecurePersistencySimulator
        from repro.sim.config import SystemConfig

        trace = build_trace("bwaves", 20_000, seed=1)
        nwpes = []
        for entries in (8, 512):
            sim = SecurePersistencySimulator(
                config=SystemConfig().with_secpb_entries(entries), scheme=None
            )
            nwpes.append(sim.run(trace).stats["nwpe"])
        assert nwpes[1] / nwpes[0] < 1.3
