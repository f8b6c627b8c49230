"""Microbenchmark of the simulator inner loop (perf-regression gate).

Times one full trace-driven simulation per single-core timing model (BBB,
the six schemes, the SP baseline and strict flush persistency) with
pytest-benchmark, the measurement the ``simloop-*`` workloads of the
end-to-end benchmark in ``bench/`` make per configuration (see
``bench/README.md``).  These loop cases time the warm loop: the
hierarchy front end (:func:`repro.sim.hierarchy.front_end`) is memoized
on the fixture's trace, so only the reference run before each
measurement replays the cache stack.  A separate case times that replay
on a fresh trace per round.  The hot-path optimization work holds two
properties simultaneously:

* artifacts stay byte-identical (tests/test_golden_output.py), and
* single-simulation throughput does not regress (``bench/run.py
  --workload simloop-stores`` and ``simloop-loads``).

pytest-benchmark tracks the wall-clock side across runs; the assertions
here are *correctness* ones (each timed run must produce the same cycle
count every iteration), so the suite never flakes on machine speed.

Marked ``quick``: CI runs this with ``SECPB_HOTLOOP_OPS`` reduced — the
point of the CI job is catching accidental O(n^2) or per-op allocation
regressions, not absolute timing.
"""

from __future__ import annotations

import os

import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.schemes import SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.sim.config import SystemConfig
from repro.sim.hierarchy import front_end
from repro.workloads.spec import build_trace
from repro.workloads.trace import Trace

pytestmark = pytest.mark.quick

HOTLOOP_OPS = int(os.environ.get("SECPB_HOTLOOP_OPS", "40000"))
SEED = 1
BENCHMARK = "gamess"


@pytest.fixture(scope="module")
def trace():
    built = build_trace(BENCHMARK, HOTLOOP_OPS, SEED)
    # Materialize the iteration columns once so the first timed round
    # is not charged the one-off tolist() conversion.
    next(iter(built.iter_ops()))
    return built


def _simulator(name):
    if name == "sp":
        return StrictPersistencySimulator()
    if name == "flush":
        return FlushBasedSimulator(PersistencyModel.STRICT)
    scheme = None if name == "bbb" else get_scheme(name)
    return SecurePersistencySimulator(scheme=scheme)


def _run(trace, name):
    return _simulator(name).run(trace).cycles


@pytest.mark.parametrize("name", ["bbb"] + SPECTRUM_ORDER + ["sp", "flush"])
def test_single_simulation_throughput(benchmark, trace, name):
    reference = _run(trace, name)
    cycles = benchmark(_run, trace, name)
    # Determinism inside the timing loop: every iteration simulated the
    # exact same execution.
    assert cycles == reference
    assert cycles > 0


def test_front_end_replay_throughput(benchmark, trace):
    """One hierarchy replay per round, each on a fresh trace with no memo."""
    builds = []

    def fresh_trace():
        return (Trace(trace.name, trace.is_store, trace.block_addr, trace.gap),), {}

    def build(fresh):
        front = front_end(fresh, SystemConfig(), True, 0)
        builds.append((front.load_latency, front.stats.as_dict()))

    build(*fresh_trace()[0])
    benchmark.pedantic(build, setup=fresh_trace, rounds=3)
    # Determinism across replays: every round rebuilt the same front end.
    assert len(builds) > 1
    assert all(later == builds[0] for later in builds[1:])
    assert len(builds[0][0]) == len(trace)
