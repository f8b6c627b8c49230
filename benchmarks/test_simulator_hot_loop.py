"""Microbenchmark of the simulator inner loop (perf-regression gate).

Times one full trace-driven simulation per single-core timing model (BBB,
the six schemes, the SP baseline and strict flush persistency) with
pytest-benchmark, the measurement the ``simloop-*`` workloads of the
end-to-end benchmark in ``bench/`` make per configuration (see
``bench/README.md``).  These loop cases time the warm loop: the
hierarchy front end (:func:`repro.sim.hierarchy.front_end`) and the load
schedule (:func:`repro.core.simulator.load_schedule`) are memoized on the
fixture's trace, so only the reference run before each measurement
builds them.  Two separate cases time those builds, each on a fresh
trace per round.  The hot-path optimization work holds two properties
simultaneously:

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
from repro.core.controller import TimingCalibration
from repro.core.simulator import SecurePersistencySimulator, load_schedule
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


def _fresh_trace(trace):
    """The fixture's trace without its memos, as pedantic's setup hands it."""
    return (Trace(trace.name, trace.is_store, trace.block_addr, trace.gap),), {}


def test_front_end_replay_throughput(benchmark, trace):
    """One hierarchy replay per round, each on a fresh trace with no memo."""
    builds = []

    def fresh_trace():
        return _fresh_trace(trace)

    def build(fresh):
        front = front_end(fresh, SystemConfig(), True, 0)
        builds.append((front.load_latency, front.stats.as_dict()))

    build(*fresh_trace()[0])
    benchmark.pedantic(build, setup=fresh_trace, rounds=3)
    # Determinism across replays: every round rebuilt the same front end.
    assert len(builds) > 1
    assert all(later == builds[0] for later in builds[1:])
    assert len(builds[0][0]) == len(trace)


def test_load_schedule_build_throughput(benchmark, trace):
    """One load-schedule build per round, each on a fresh trace.

    The replay it reads is built in the round's setup, so a round times
    the schedule alone.
    """
    config, calibration = SystemConfig(), TimingCalibration()
    warmup_ops = len(trace) * 3 // 10
    builds = []

    def replayed_trace():
        args, kwargs = _fresh_trace(trace)
        front_end(args[0], config, True, warmup_ops)
        return args, kwargs

    def build(fresh):
        schedule = load_schedule(fresh, config, calibration, warmup_ops, False)
        builds.append(schedule)

    build(*replayed_trace()[0])
    benchmark.pedantic(build, setup=replayed_trace, rounds=3)
    # Determinism across builds: every round built the same schedule,
    # one event per store plus the warmup boundary and the end.
    assert len(builds) > 1
    assert all(later == builds[0] for later in builds[1:])
    assert len(builds[0].events) == trace.num_stores + 2
    assert builds[0].instructions == trace.instructions
