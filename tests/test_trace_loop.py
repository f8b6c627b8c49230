"""The one single-core trace loop and the oracles that tie models to it.

SecPB, the SP baseline and flush-based persistency differ only in their
store path (:class:`repro.core.simulator.StorePath`); everything else —
warmup accounting, instruction and clock accounting, loads and their
optional non-speculative verification — is :meth:`TraceSimulator.run`.
These tests pin that structure and the differential oracles it implies:

* a load-only trace exercises no store path, so every single-core model
  reports the same cycles, instructions and cache counters;
* a one-core :class:`MultiCoreSecPBSimulator` (its own lockstep loop)
  reports the same cycles and instructions as the single-core loop;
* without speculative verification, every model whose store path carries
  metadata caches verifies PM loads — SP and secure flush included.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.multicore import MultiCoreSecPBSimulator
from repro.core.schemes import CM, NOGAP, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator, TraceSimulator
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.sim.config import SystemConfig
from repro.workloads.spec import build_trace
from repro.workloads.trace import Trace

WARMUP = 0.3
SIMULATORS = (
    SecurePersistencySimulator,
    StrictPersistencySimulator,
    FlushBasedSimulator,
)


def _nonspec() -> SystemConfig:
    base = SystemConfig()
    return dataclasses.replace(
        base,
        security=dataclasses.replace(base.security, speculative_verification=False),
    )


class TestOneLoop:
    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_subclasses_the_loop_directly(self, cls):
        assert cls.__bases__ == (TraceSimulator,)

    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_defines_no_run_of_its_own(self, cls):
        assert "run" not in vars(cls)
        assert cls.run is TraceSimulator.run


class TestLoadOnlyOracle:
    """No stores, no store path: every model is the same machine."""

    @pytest.fixture(scope="class")
    def load_only(self):
        trace = build_trace("mcf", 4000, 1)
        no_stores = np.zeros_like(trace.is_store)
        return Trace(trace.name, no_stores, trace.block_addr, trace.gap)

    def test_all_models_agree(self, load_only):
        simulators = [
            SecurePersistencySimulator(),
            SecurePersistencySimulator(scheme=NOGAP),
            StrictPersistencySimulator(),
            FlushBasedSimulator(PersistencyModel.STRICT),
            FlushBasedSimulator(PersistencyModel.EPOCH, secure=True),
        ]
        views = []
        for simulator in simulators:
            result = simulator.run(load_only, WARMUP)
            hierarchy = {
                key: value
                for key, value in result.stats.items()
                if key.startswith(("cache.", "hierarchy."))
            }
            views.append((result.cycles, result.instructions, hierarchy))
        assert views[0][0] == 278630.0
        assert views[0][2]  # the cache counters are really compared
        for view in views[1:]:
            assert view == views[0]


class TestOneCoreMulticoreOracle:
    """The lockstep multicore loop with one core is the single-core loop."""

    @pytest.mark.parametrize("workload", ["gamess", "mcf", "hmmer", "povray"])
    @pytest.mark.parametrize("entries", [8, 32])
    def test_matches_single_core(self, workload, entries):
        trace = build_trace(workload, 3000, 2)
        config = SystemConfig().with_secpb_entries(entries)
        for name in ["bbb"] + SPECTRUM_ORDER:
            scheme = None if name == "bbb" else get_scheme(name)
            multi = MultiCoreSecPBSimulator(1, scheme, config).run([trace], WARMUP)
            single = SecurePersistencySimulator(config, scheme).run(trace, WARMUP)
            assert (multi.cycles, multi.instructions) == (
                single.cycles,
                single.instructions,
            ), name


class TestNonSpeculativeVerification:
    """Every model with metadata caches verifies PM loads when told to."""

    @pytest.fixture(scope="class")
    def mcf(self):
        return build_trace("mcf", 6000, 1)

    def test_sp_verifies_like_cm(self, mcf):
        cm = SecurePersistencySimulator(_nonspec(), CM).run(mcf, WARMUP)
        sp = StrictPersistencySimulator(_nonspec()).run(mcf, WARMUP)
        speculative = StrictPersistencySimulator().run(mcf, WARMUP)
        assert cm.stats["verify.load_verifications"] == 3976
        assert sp.stats["verify.load_verifications"] == 3976
        assert speculative.cycles == 396540.5
        assert sp.cycles == pytest.approx(545224.7, abs=0.01)

    def test_secure_flush_verifies(self, mcf):
        flush = FlushBasedSimulator(secure=True, config=_nonspec()).run(mcf, WARMUP)
        speculative = FlushBasedSimulator(secure=True).run(mcf, WARMUP)
        assert flush.stats["verify.load_verifications"] == 3976
        assert speculative.cycles == 530432.5
        assert flush.cycles == pytest.approx(643696.7, abs=0.01)

    @pytest.mark.parametrize(
        "make",
        [
            lambda config: SecurePersistencySimulator(config),
            lambda config: FlushBasedSimulator(config=config),
        ],
        ids=["bbb", "flush_plain"],
    )
    def test_models_without_metadata_unchanged(self, mcf, make):
        nonspec = make(_nonspec()).run(mcf, WARMUP)
        speculative = make(SystemConfig()).run(mcf, WARMUP)
        assert "verify.load_verifications" not in nonspec.stats
        assert nonspec == speculative
