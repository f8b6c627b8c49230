"""Tests for repro.analysis.runner — the parallel experiment runner.

The load-bearing property is *determinism*: a sweep fanned across N
worker processes must assemble to exactly the result the serial loop
produces, bit for bit, so every experiment artifact is comparable across
`--jobs` settings and across PRs.
"""

import pytest

from repro.analysis.experiments import DEFAULT_WARMUP, run_table4
from repro.analysis.runner import (
    SimJob,
    SimSpec,
    clear_result_memo,
    execute_job,
    run_jobs,
)
from repro.baselines.strict import StrictPersistencySimulator
from repro.core.schemes import get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.sim.config import SystemConfig
from repro.workloads.store import get_trace


def _job(key, benchmark="povray", num_ops=1500, seed=1, warmup=0.3, **spec_kw):
    return SimJob(
        key=key,
        benchmark=benchmark,
        num_ops=num_ops,
        seed=seed,
        warmup_frac=warmup,
        spec=SimSpec(**spec_kw),
    )


class TestSimSpec:
    def test_unknown_simulator_rejected(self):
        with pytest.raises(ValueError, match="simulator"):
            SimSpec(simulator="magic")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            SimSpec(scheme="not-a-scheme")

    def test_scheme_rejected_for_strict_simulator(self):
        # The strict baseline has no scheme; accepting one would let two
        # specs for the same simulation look different.
        with pytest.raises(ValueError, match="strict"):
            SimSpec(simulator="strict", scheme="cm")


class TestExecuteJob:
    def test_secure_job_matches_direct_simulation(self):
        job = _job(("k",), scheme="cm")
        via_runner = execute_job(job)
        direct = SecurePersistencySimulator(scheme=get_scheme("cm")).run(
            get_trace("povray", 1500, 1), 0.3
        )
        assert via_runner == direct

    def test_baseline_job_runs_bbb(self):
        result = execute_job(_job(("k",), scheme=None))
        assert result.scheme == "bbb"

    def test_strict_job_matches_direct_simulation(self):
        job = _job(("k",), simulator="strict")
        direct = StrictPersistencySimulator().run(get_trace("povray", 1500, 1), 0.3)
        assert execute_job(job) == direct

    def test_secpb_entries_override(self):
        small = execute_job(_job(("s",), scheme="cm", secpb_entries=4))
        large = execute_job(_job(("l",), scheme="cm", secpb_entries=256))
        assert small.cycles > large.cycles

    def test_bmf_cut_reduces_update_height_cost(self):
        full = execute_job(_job(("f",), scheme="cm"))
        cut = execute_job(_job(("c",), scheme="cm", bmf_cut=2))
        assert cut.cycles < full.cycles

    def test_explicit_config_respected(self):
        config = SystemConfig().with_secpb_entries(8)
        result = execute_job(_job(("k",), scheme="cm", config=config))
        assert result == execute_job(_job(("k2",), scheme="cm", secpb_entries=8))


class TestRunJobs:
    def test_results_keyed_and_ordered_by_submission(self):
        jobs = [_job(("b",), scheme="cm"), _job(("a",), scheme=None)]
        results = run_jobs(jobs, workers=1)
        assert list(results) == [("b",), ("a",)]

    def test_duplicate_keys_rejected(self):
        jobs = [_job(("same",), scheme="cm"), _job(("same",), scheme=None)]
        with pytest.raises(ValueError, match="duplicate job keys"):
            run_jobs(jobs, workers=1)

    def test_parallel_results_equal_serial(self):
        jobs = [
            _job((bench, label), benchmark=bench, scheme=scheme)
            for bench in ("gamess", "povray")
            for label, scheme in (("bbb", None), ("cm", "cm"), ("nogap", "nogap"))
        ]
        serial = run_jobs(jobs, workers=1)
        clear_result_memo()  # or the parallel side is answered from it
        parallel = run_jobs(jobs, workers=3)
        assert serial == parallel
        assert list(serial) == list(parallel)


class TestExperimentDeterminism:
    """Acceptance: runner(jobs=4) output equals jobs=1 output exactly."""

    BENCHES = ["gamess", "povray", "hmmer"]

    def test_table4_parallel_identical_to_serial(self):
        serial = run_table4(num_ops=4000, benchmarks=self.BENCHES, jobs=1)
        clear_result_memo()
        parallel = run_table4(num_ops=4000, benchmarks=self.BENCHES, jobs=4)
        assert parallel.mean_overhead_pct == serial.mean_overhead_pct
        assert parallel.per_benchmark_pct == serial.per_benchmark_pct
        assert parallel.render() == serial.render()

    def test_warmup_default_matches_harness(self):
        assert DEFAULT_WARMUP == 0.3
