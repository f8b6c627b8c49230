"""Shared configuration for the paper-artifact benchmark harness.

Each benchmark module regenerates one table/figure of the paper's
evaluation at full scale (all 18 workloads), times the run via
pytest-benchmark, asserts the paper's qualitative shape, and writes the
rendered artifact to ``benchmarks/results/<id>.txt`` (the inputs to
EXPERIMENTS.md).
"""

from __future__ import annotations

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Trace length per workload for the timing experiments.  Large enough for
# warmed caches and stable statistics, small enough that the whole harness
# finishes in minutes.
BENCH_NUM_OPS = int(os.environ.get("SECPB_BENCH_OPS", "40000"))
SWEEP_NUM_OPS = int(os.environ.get("SECPB_SWEEP_OPS", "25000"))

# Worker processes per experiment sweep (repro.analysis.runner).  The
# default keeps pytest-benchmark timings comparable to older runs; set
# SECPB_BENCH_JOBS=N to regenerate the whole harness N-core fast — the
# rendered artifacts are bit-identical either way.
BENCH_JOBS = int(os.environ.get("SECPB_BENCH_JOBS", "1"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "quick: fast smoke subset exercising the parallel runner "
        "(run with `pytest benchmarks -m quick`)",
    )


# The result memo and execution-plane fixtures live in the root conftest.py.


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write one rendered artifact to benchmarks/results/<name>.txt."""

    def _save(name: str, text: str) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return path

    return _save
