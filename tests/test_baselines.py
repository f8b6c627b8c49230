"""Tests for repro.baselines — BBB and SP (PLP strict persistency)."""

import pytest

from repro.baselines.bbb import PlaintextPersistentSystem, make_bbb_simulator, run_bbb
from repro.baselines.strict import StrictPersistencySimulator, run_sp
from repro.core.schemes import get_scheme
from repro.core.simulator import run_scheme
from repro.sim.config import SystemConfig
from repro.workloads.synthetic import zipf_trace


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(
        num_ops=3000,
        working_set_blocks=800,
        zipf_alpha=0.7,
        store_fraction=0.5,
        burst_length=2,
        mean_gap=3.0,
        seed=11,
        name="baseline-unit",
    )


class TestBBB:
    def test_run_bbb(self, trace):
        result = run_bbb(trace)
        assert result.scheme == "bbb"
        assert result.cycles > 0

    def test_make_bbb_simulator_has_no_scheme(self):
        assert make_bbb_simulator().scheme is None

    def test_plaintext_system_capacity_handling(self):
        system = PlaintextPersistentSystem()
        for i in range(100):
            system.store(i, bytes([i]) * 64)
        system.crash()
        recovered = system.recover()
        assert len(recovered) == 100
        assert recovered[42] == bytes([42]) * 64

    def test_plaintext_store_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            PlaintextPersistentSystem().store(0, b"x")


class TestStrictPersistency:
    def test_sp_runs(self, trace):
        result = run_sp(trace)
        assert result.scheme == "sp"
        assert result.cycles > 0
        assert result.stats["bmt.root_updates"] == trace.num_stores

    def test_sp_slower_than_bbb(self, trace):
        """SP pays a serialized tuple update at the MC per store."""
        sp = run_sp(trace)
        bbb = run_bbb(trace)
        assert sp.cycles > bbb.cycles

    def test_sp_slower_than_secpb_cm(self, trace):
        """The paper's premise: SecPB beats SP even for eager schemes on
        write-heavy workloads, because SecPB coalesces metadata updates."""
        sp = run_sp(trace)
        cm = run_scheme(trace, get_scheme("cm"))
        assert sp.cycles > cm.cycles

    def test_bmf_reduces_sp_overhead(self, trace):
        """sp_dbmf < sp (Fig. 9)."""
        full = run_sp(trace)
        dbmf = run_sp(trace, SystemConfig().with_bmf_cut(2))
        assert dbmf.cycles < full.cycles

    def test_sp_warmup_excludes_cycles(self, trace):
        full = StrictPersistencySimulator().run(trace)
        measured = StrictPersistencySimulator().run(trace, warmup_frac=0.5)
        assert measured.cycles < full.cycles
        assert measured.instructions < full.instructions

    def test_sp_invalid_warmup_rejected(self, trace):
        with pytest.raises(ValueError):
            StrictPersistencySimulator().run(trace, warmup_frac=1.5)

    def test_sp_deterministic(self, trace):
        assert run_sp(trace).cycles == run_sp(trace).cycles
