"""Tests for repro.persistency — flush-based strict/epoch persistency."""

import pytest

from repro.baselines.bbb import run_bbb
from repro.baselines.strict import StrictPersistencySimulator
from repro.core.schemes import get_scheme
from repro.core.simulator import run_scheme
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.workloads.synthetic import zipf_trace


@pytest.fixture(scope="module")
def trace():
    return zipf_trace(
        num_ops=2500,
        working_set_blocks=600,
        zipf_alpha=0.7,
        store_fraction=0.5,
        burst_length=2,
        mean_gap=3.0,
        seed=21,
        name="persistency-unit",
    )


class TestConstruction:
    def test_invalid_epoch_size(self):
        with pytest.raises(ValueError):
            FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=0)

    def test_scheme_names(self):
        assert FlushBasedSimulator(PersistencyModel.STRICT).scheme_name == "flush_strict"
        assert (
            FlushBasedSimulator(PersistencyModel.STRICT, secure=True).scheme_name
            == "flush_strict_secure"
        )
        assert (
            FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=64).scheme_name
            == "flush_epoch64"
        )

    def test_invalid_warmup(self, trace):
        with pytest.raises(ValueError):
            FlushBasedSimulator().run(trace, warmup_frac=2.0)


class TestModelOrdering:
    def test_strict_flushes_every_store(self, trace):
        result = FlushBasedSimulator(PersistencyModel.STRICT).run(trace)
        assert result.stats["flush.lines"] == trace.num_stores
        assert result.stats["flush.fences"] == trace.num_stores

    def test_warmup_excluded_from_stats(self, trace):
        """Stats cover the measured region, like cycles and instructions."""
        result = FlushBasedSimulator(PersistencyModel.STRICT).run(trace, 0.3)
        assert result.stats["instructions"] == result.instructions
        # Strict flushing persists one line per measured store, exactly
        # as the SP baseline updates the BMT root once per measured store.
        strict = StrictPersistencySimulator().run(trace, 0.3)
        assert result.stats["flush.lines"] == strict.stats["bmt.root_updates"]
        assert result.stats["flush.fences"] == result.stats["flush.lines"]

    def test_epoch_fences_once_per_epoch(self, trace):
        result = FlushBasedSimulator(
            PersistencyModel.EPOCH, epoch_stores=32
        ).run(trace)
        expected_fences = -(-trace.num_stores // 32)
        assert result.stats["flush.fences"] == expected_fences
        # Coalescing within epochs: fewer lines than stores.
        assert result.stats["flush.lines"] <= trace.num_stores

    def test_epoch_is_faster_than_strict(self, trace):
        """The classic result: relaxing persist order pays."""
        strict = FlushBasedSimulator(PersistencyModel.STRICT).run(trace)
        epoch = FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=32).run(trace)
        assert epoch.cycles < strict.cycles

    def test_larger_epochs_are_not_slower(self, trace):
        small = FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=8).run(trace)
        large = FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=128).run(trace)
        assert large.cycles <= small.cycles * 1.01

    def test_security_makes_flushing_slower(self, trace):
        plain = FlushBasedSimulator(PersistencyModel.STRICT).run(trace)
        secure = FlushBasedSimulator(PersistencyModel.STRICT, secure=True).run(trace)
        assert secure.cycles > plain.cycles


class TestPersistentHierarchyMotivation:
    """The intro's argument, quantified end to end."""

    def test_bbb_beats_flush_based_strict(self, trace):
        """Persistent hierarchy eliminates flushes and fences."""
        bbb = run_bbb(trace)
        strict = FlushBasedSimulator(PersistencyModel.STRICT).run(trace)
        assert bbb.cycles < strict.cycles

    def test_secpb_cobcm_beats_secure_flush_strict(self, trace):
        """...and SecPB keeps the benefit under full security."""
        cobcm = run_scheme(trace, get_scheme("cobcm"))
        secure_strict = FlushBasedSimulator(
            PersistencyModel.STRICT, secure=True
        ).run(trace)
        assert cobcm.cycles < secure_strict.cycles

    def test_secpb_cobcm_beats_secure_epoch(self, trace):
        """SecPB's strict persistency even beats *epoch* persistency with
        flush-based security — SP stops being the slow option."""
        cobcm = run_scheme(trace, get_scheme("cobcm"))
        secure_epoch = FlushBasedSimulator(
            PersistencyModel.EPOCH, epoch_stores=32, secure=True
        ).run(trace)
        assert cobcm.cycles < secure_epoch.cycles

    def test_deterministic(self, trace):
        a = FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=16).run(trace)
        b = FlushBasedSimulator(PersistencyModel.EPOCH, epoch_stores=16).run(trace)
        assert a.cycles == b.cycles
