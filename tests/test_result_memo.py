"""The run_jobs result memo: each distinct simulation runs once per process.

Jobs are memoized by *content* (benchmark, trace length, seed, warmup
and the resolved simulator setup), not by key, so artifacts that share
simulations — Fig. 6 re-reads Table IV, Fig. 8 is Table IV's secure
grid — stop paying for them twice.  These tests count executions by
wrapping ``runner.execute_job`` (serial runs call it in-process).
"""

import dataclasses
import logging

import pytest

from repro.analysis import experiments, runner
from repro.analysis.runner import (
    JobFailure,
    SimJob,
    SimSpec,
    clear_result_memo,
    run_jobs,
)
from repro.core.controller import TimingCalibration
from repro.durability.interrupt import RunInterrupted, StopToken
from repro.obs import MetricsRegistry
from repro.sim.config import SystemConfig

BENCHES = ["gamess", "mcf"]
TIMING_ARTIFACTS = ("table4", "fig6", "fig7", "fig8", "fig9")
ARTIFACT_OPTS = {"num_ops": 300, "benchmarks": BENCHES}


@pytest.fixture
def executions(monkeypatch):
    """Keys of every job actually simulated, in execution order."""
    executed = []
    execute = runner.execute_job

    def counting(job):
        executed.append(job.key)
        return execute(job)

    monkeypatch.setattr(runner, "execute_job", counting)
    return executed


def _job(key, benchmark="povray", num_ops=600, seed=1, warmup=0.3, **spec_kw):
    return SimJob(
        key=key,
        benchmark=benchmark,
        num_ops=num_ops,
        seed=seed,
        warmup_frac=warmup,
        spec=SimSpec(**spec_kw),
    )


class TestArtifacts:
    def test_sequence_executes_each_distinct_job_once(
        self, executions, monkeypatch
    ):
        submitted = []
        run = experiments.run_jobs

        def recording(jobs, **kwargs):
            submitted.extend(jobs)
            return run(jobs, **kwargs)

        monkeypatch.setattr(experiments, "run_jobs", recording)
        for name in TIMING_ARTIFACTS:
            experiments.run_experiment(name, **ARTIFACT_OPTS)
        # table4 14 + fig6 14 + fig7 28 + fig8 12 + fig9 12 submitted;
        # distinct: table4's 14, fig7's 24 non-32-entry jobs, fig9's 8
        # BMF jobs.
        assert len(submitted) == 80
        assert len(executions) == 46

    def test_warm_memo_renders_identically_to_cold(self):
        warm = {
            name: experiments.run_experiment(name, **ARTIFACT_OPTS).render()
            for name in TIMING_ARTIFACTS
        }
        for name in TIMING_ARTIFACTS:
            clear_result_memo()
            cold = experiments.run_experiment(name, **ARTIFACT_OPTS).render()
            assert cold == warm[name], name


class TestKey:
    def _executions_for(self, executions, *jobs):
        before = len(executions)
        for job in jobs:
            run_jobs([job])
        return len(executions) - before

    def test_resolved_defaults_share_an_entry(self, executions):
        assert SystemConfig().secpb.entries == 32
        ran = self._executions_for(
            executions,
            _job(("plain",), scheme="cm"),
            _job(("sized",), scheme="cm", secpb_entries=32),
            _job(("explicit",), scheme="cm", config=SystemConfig(),
                 calibration=TimingCalibration()),
            # Without a BMF cut the root cache is never consulted.
            _job(("rootcache",), scheme="cm", root_cache_bytes=1024),
        )
        assert ran == 1

    @pytest.mark.parametrize(
        "variant",
        [
            {"seed": 2},
            {"num_ops": 700},
            {"warmup": 0.2},
            {"calibration": TimingCalibration(cpi_base=0.6)},
            {"bmf_cut": 2},
            {"secpb_entries": 16},
            {"scheme": "nogap"},
        ],
        ids=lambda variant: next(iter(variant)),
    )
    def test_content_difference_misses(self, executions, variant):
        base = {"scheme": "cm"}
        ran = self._executions_for(
            executions,
            _job(("base",), **base),
            _job(("variant",), **{**base, **variant}),
        )
        assert ran == 2

    def test_root_cache_counts_with_a_bmf_cut(self, executions):
        ran = self._executions_for(
            executions,
            _job(("a",), scheme="cm", bmf_cut=5),
            _job(("b",), scheme="cm", bmf_cut=5, root_cache_bytes=1024),
        )
        assert ran == 2


class TestFailures:
    def test_job_failure_is_never_memoized(self, executions):
        poisoned = _job(("poisoned",), benchmark="no-such-benchmark")
        for _ in range(2):
            failure = run_jobs([poisoned], on_error="record", retries=0)[
                ("poisoned",)
            ]
            assert isinstance(failure, JobFailure)
        assert executions == [("poisoned",), ("poisoned",)]

    def test_unresolvable_spec_fails_in_the_worker(self):
        # A zero-entry SecPB cannot even be configured; it must still
        # surface as a recorded failure, not raise out of run_jobs.
        bad = _job(("bad",), scheme="cm", secpb_entries=0)
        failure = run_jobs([bad], on_error="record", retries=0)[("bad",)]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "ValueError"


class TestHooks:
    def test_on_result_covers_memo_hits(self, caplog):
        jobs = [_job(("cm",), scheme="cm"), _job(("bbb",), scheme=None)]
        run_jobs(jobs)
        seen = []
        registry = MetricsRegistry()
        with caplog.at_level(logging.INFO, logger="repro.analysis.runner"):
            results = run_jobs(
                [dataclasses.replace(job, key=("again",) + job.key) for job in jobs],
                on_result=lambda key, value: seen.append(key),
                metrics=registry,
            )
        assert seen == list(results) == [("again", "cm"), ("again", "bbb")]
        assert registry.get("runner.tasks_memoized").value == 2.0
        # Nothing was resumed or dispatched, and nothing claims a journal.
        assert registry.get("runner.tasks_resumed") is None
        assert registry.get("runner.tasks_total") is None
        assert "journaled" not in caplog.text

    def test_memo_hits_are_not_counted_as_resumed(self):
        cached, journaled, fresh = (
            _job(("cached",), scheme="cm"),
            _job(("journaled",), scheme="m"),
            _job(("fresh",), scheme="nogap"),
        )
        reference = run_jobs([cached, journaled])
        seen = []
        registry = MetricsRegistry()
        results = run_jobs(
            [cached, journaled, fresh],
            completed={("journaled",): reference[("journaled",)]},
            on_result=lambda key, value: seen.append(key),
            metrics=registry,
        )
        assert list(results) == [("cached",), ("journaled",), ("fresh",)]
        assert seen == [("cached",), ("fresh",)]
        assert registry.get("runner.tasks_memoized").value == 1.0
        assert registry.get("runner.tasks_resumed").value == 1.0
        assert registry.get("runner.tasks_total").value == 2.0

    def test_interrupt_carries_memo_hits(self):
        cached = _job(("cached",), scheme="cm")
        pending = _job(("pending",), scheme="m")
        run_jobs([cached])
        stop = StopToken()
        stop.trip("test stop")
        with pytest.raises(RunInterrupted) as excinfo:
            run_jobs([cached, pending], stop=stop)
        assert list(excinfo.value.completed) == [("cached",)]


class TestIsolation:
    def test_hits_do_not_share_stats(self):
        job = _job(("a",), scheme="cm")
        first = run_jobs([job])[("a",)]
        pristine = dict(first.stats)
        first.stats["secpb.writes"] = -1.0  # a caller scribbling on its copy
        second = run_jobs([job])[("a",)]
        third = run_jobs([job])[("a",)]
        assert second.stats == pristine
        assert second.stats is not third.stats

    def test_parallel_call_publishes_only_misses(self, monkeypatch):
        cached, missing = (
            [_job((bench, s), benchmark=bench, scheme=s) for s in ("cm", "m")]
            for bench in ("gamess", "mcf")
        )
        run_jobs(cached)
        published = []
        publish = runner._publish_job_traces

        def recording(jobs, completed, metrics):
            published.extend(job.key for job in jobs)
            return publish(jobs, completed, metrics)

        monkeypatch.setattr(runner, "_publish_job_traces", recording)
        parallel = run_jobs(cached + missing, workers=2)
        assert published == [job.key for job in missing]
        clear_result_memo()
        assert parallel == run_jobs(cached + missing)
