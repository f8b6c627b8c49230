"""Every timing model is reusable: a second run is a fresh model's run.

A simulator object is a configuration, not a run: each run builds its
store path, metadata caches, BMF root cache, engines and buffers anew.
So running one object twice on one trace gives, both times, exactly what
a freshly built model gives (cycles, instructions, every counter and the
key set), whatever state the first run left behind.

The trace is mcf's PM misses followed by povray's stores (seed 2), where
a root cache kept from an earlier run once moved CM's acceptance cycles
under a BMF cut.
"""

import dataclasses

import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.multicore import MultiCoreSecPBSimulator
from repro.core.schemes import CM, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.sim.config import SystemConfig
from repro.workloads.spec import build_trace

WARMUP = 0.3
TABLE1 = SystemConfig()
NONSPEC = dataclasses.replace(
    TABLE1,
    security=dataclasses.replace(TABLE1.security, speculative_verification=False),
)
NO_COALESCING = dataclasses.replace(
    TABLE1,
    secpb=dataclasses.replace(TABLE1.secpb, value_independent_coalescing=False),
)


STRICT, EPOCH = PersistencyModel.STRICT, PersistencyModel.EPOCH
CUT2, CUT5 = TABLE1.with_bmf_cut(2), TABLE1.with_bmf_cut(5)

MODELS = {
    "bbb": lambda: SecurePersistencySimulator(),
    **{
        name: (lambda name=name: SecurePersistencySimulator(scheme=get_scheme(name)))
        for name in SPECTRUM_ORDER
    },
    "sp": lambda: StrictPersistencySimulator(),
    "flush_strict": lambda: FlushBasedSimulator(STRICT),
    "flush_strict_secure": lambda: FlushBasedSimulator(STRICT, secure=True),
    "flush_epoch": lambda: FlushBasedSimulator(EPOCH),
    "flush_epoch_secure": lambda: FlushBasedSimulator(EPOCH, secure=True),
    "cm_nonspec": lambda: SecurePersistencySimulator(NONSPEC, CM),
    "cm_no_coalescing": lambda: SecurePersistencySimulator(NO_COALESCING, CM),
    "cm_cut2": lambda: SecurePersistencySimulator(CUT2, CM),
    "cm_cut5": lambda: SecurePersistencySimulator(CUT5, CM),
    "sp_cut2": lambda: StrictPersistencySimulator(CUT2),
    "sp_cut5": lambda: StrictPersistencySimulator(CUT5),
    "flush_strict_secure_cut2": lambda: FlushBasedSimulator(STRICT, secure=True, config=CUT2),
    "flush_strict_secure_cut5": lambda: FlushBasedSimulator(STRICT, secure=True, config=CUT5),
}


@pytest.fixture(scope="module")
def halves():
    return build_trace("mcf", 1500, 2), build_trace("povray", 1500, 2)


@pytest.fixture(scope="module")
def trace(halves):
    return halves[0].concat(halves[1])


def _view(result):
    return result.cycles, result.instructions, sorted(result.stats), result.stats


@pytest.mark.parametrize("name", sorted(MODELS))
def test_second_run_equals_a_fresh_model(trace, name):
    model = MODELS[name]()
    first = model.run(trace, WARMUP)
    second = model.run(trace, WARMUP)
    fresh = MODELS[name]().run(trace, WARMUP)
    assert _view(first) == _view(fresh)
    assert _view(second) == _view(fresh)


def test_cut_models_reach_the_forest(trace):
    """The cut cases reach the forest: a cut of 2 lowers every model's cycles."""
    for label in ("cm", "sp", "flush_strict_secure"):
        full = MODELS[label]().run(trace, WARMUP)
        cut = MODELS[f"{label}_cut2"]().run(trace, WARMUP)
        assert cut.cycles < full.cycles, label


def test_multicore_second_run_equals_a_fresh_model(halves):
    def make():
        return MultiCoreSecPBSimulator(2, CM, CUT2)

    model = make()
    first = model.run(list(halves), WARMUP)
    second = model.run(list(halves), WARMUP)
    fresh = make().run(list(halves), WARMUP)
    assert first == fresh
    assert second == fresh
