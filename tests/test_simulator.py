"""Tests for repro.core.simulator — the trace-driven timing model."""

import pytest

from repro.core.schemes import SCHEMES, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator, run_scheme
from repro.sim.config import SystemConfig
from repro.workloads.synthetic import uniform_trace, zipf_trace


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(
        num_ops=3000,
        working_set_blocks=1000,
        zipf_alpha=0.6,
        store_fraction=0.6,
        burst_length=2,
        mean_gap=3.0,
        seed=3,
        name="unit",
    )


class TestBasicRuns:
    def test_bbb_run_produces_result(self, trace):
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert result.scheme == "bbb"
        assert result.benchmark == "unit"
        assert result.cycles > 0
        assert result.instructions == trace.instructions

    def test_deterministic(self, trace):
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        a = sim.run(trace)
        b = SecurePersistencySimulator(scheme=get_scheme("cm")).run(trace)
        assert a.cycles == b.cycles
        assert a.stats == b.stats

    def test_all_schemes_run(self, trace):
        for name in SPECTRUM_ORDER:
            result = run_scheme(trace, SCHEMES[name])
            assert result.cycles > 0
            assert result.scheme == name

    def test_stats_contain_ppti_and_nwpe(self, trace):
        result = run_scheme(trace, get_scheme("cm"))
        assert result.stats["ppti"] > 0
        assert result.stats["nwpe"] >= 1.0


class TestSchemeOrdering:
    def test_security_never_speeds_up_execution(self, trace):
        base = SecurePersistencySimulator(scheme=None).run(trace)
        for name in SPECTRUM_ORDER:
            result = run_scheme(trace, SCHEMES[name])
            assert result.cycles >= base.cycles * 0.999

    def test_spectrum_ordering_on_write_heavy_trace(self, trace):
        """Table IV's ordering: lazier schemes are faster."""
        cycles = {
            name: run_scheme(trace, SCHEMES[name]).cycles
            for name in SPECTRUM_ORDER
        }
        assert cycles["cobcm"] <= cycles["bcm"] * 1.001
        assert cycles["bcm"] <= cycles["cm"] * 1.001
        assert cycles["cm"] <= cycles["nogap"] * 1.001

    def test_eager_schemes_count_bmt_updates(self, trace):
        result = run_scheme(trace, get_scheme("cm"))
        assert result.stats.get("bmt.root_updates", 0) > 0
        assert result.stats.get("bmt.root_updates") == result.stats.get(
            "secpb.allocations"
        )

    def test_bbb_does_no_security_work(self, trace):
        result = SecurePersistencySimulator(scheme=None).run(trace)
        assert result.stats.get("bmt.root_updates", 0) == 0
        assert result.stats.get("mac.generations", 0) == 0


class TestSecPBSizeEffect:
    def test_larger_secpb_coalesces_more(self):
        """Fig. 7/8 mechanism: more entries -> fewer allocations (higher
        NWPE) on a reuse-heavy trace."""
        reuse_trace = zipf_trace(
            num_ops=6000,
            working_set_blocks=120,
            zipf_alpha=0.9,
            store_fraction=0.8,
            burst_length=4,
            mean_gap=1.0,
            seed=5,
            name="reuse",
        )
        small = SecurePersistencySimulator(
            config=SystemConfig().with_secpb_entries(8), scheme=get_scheme("cm")
        ).run(reuse_trace)
        large = SecurePersistencySimulator(
            config=SystemConfig().with_secpb_entries(256), scheme=get_scheme("cm")
        ).run(reuse_trace)
        assert large.stats["nwpe"] > small.stats["nwpe"]
        assert large.stats["secpb.allocations"] < small.stats["secpb.allocations"]

    def test_larger_secpb_is_not_slower_under_cm(self):
        reuse_trace = zipf_trace(
            num_ops=6000,
            working_set_blocks=120,
            zipf_alpha=0.9,
            store_fraction=0.8,
            burst_length=4,
            mean_gap=1.0,
            seed=5,
            name="reuse",
        )
        small = SecurePersistencySimulator(
            config=SystemConfig().with_secpb_entries(8), scheme=get_scheme("cm")
        ).run(reuse_trace)
        large = SecurePersistencySimulator(
            config=SystemConfig().with_secpb_entries(256), scheme=get_scheme("cm")
        ).run(reuse_trace)
        assert large.cycles <= small.cycles


class TestWarmup:
    def test_warmup_excludes_leading_cycles(self, trace):
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        full = sim.run(trace)
        measured = SecurePersistencySimulator(scheme=get_scheme("cm")).run(
            trace, warmup_frac=0.5
        )
        assert measured.instructions < full.instructions
        assert measured.cycles < full.cycles

    def test_invalid_warmup_rejected(self, trace):
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        with pytest.raises(ValueError):
            sim.run(trace, warmup_frac=1.0)
        with pytest.raises(ValueError):
            sim.run(trace, warmup_frac=-0.1)


class TestBmfHook:
    def test_reduced_height_speeds_up_cm(self, trace):
        full = run_scheme(trace, get_scheme("cm"))
        dbmf = run_scheme(trace, get_scheme("cm"), SystemConfig().with_bmf_cut(2))
        assert dbmf.cycles < full.cycles


class TestBackflow:
    def test_backflow_stalls_on_drain_saturation(self):
        """A store storm over unique blocks outruns the MC drain engine and
        fills the SecPB (COBCM's characteristic overhead)."""
        storm = uniform_trace(
            num_ops=4000,
            working_set_blocks=100_000,
            store_fraction=1.0,
            mean_gap=0.0,
            seed=9,
            name="storm",
        )
        result = run_scheme(storm, get_scheme("cobcm"))
        assert result.stats.get("secpb.backflow_stalls", 0) > 0
        assert result.stats.get("secpb.backflow_cycles", 0) > 0
