"""Microbenchmark of the simulator inner loop (perf-regression gate).

Times one full trace-driven simulation per scheme with pytest-benchmark,
the measurement the ``simloop-*`` workloads of the end-to-end benchmark
in ``bench/`` make per configuration (see ``bench/README.md``).  The
hot-path optimization work holds two properties simultaneously:

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

from repro.core.schemes import SPECTRUM_ORDER, get_scheme
from repro.core.simulator import run_scheme
from repro.workloads.spec import build_trace

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


def _run(trace, scheme):
    return run_scheme(trace, scheme).cycles


@pytest.mark.parametrize("name", ["bbb"] + SPECTRUM_ORDER)
def test_single_simulation_throughput(benchmark, trace, name):
    scheme = None if name == "bbb" else get_scheme(name)
    reference = _run(trace, scheme)
    cycles = benchmark(_run, trace, scheme)
    # Determinism inside the timing loop: every iteration simulated the
    # exact same execution.
    assert cycles == reference
    assert cycles > 0
