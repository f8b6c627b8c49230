"""Hardened-runner behavior: failure capture, retry, timeout, salvage.

The acceptance bar: a deliberately poisoned job inside a ``--jobs 4``
sweep must surface as a structured :class:`JobFailure` (with the worker
traceback) while every healthy job's result stays byte-identical to a
serial run — one bad job can no longer take down a whole campaign.
"""

import pickle
import time
from dataclasses import dataclass

import pytest

from repro.analysis.runner import (
    JobFailure,
    SimJob,
    SimSpec,
    clear_result_memo,
    run_jobs,
    run_tasks,
)
from repro.obs import MetricsRegistry
from repro.runtime.pool import pool_stats


@dataclass(frozen=True)
class Task:
    key: str
    value: int = 0


def _double(task: Task) -> int:
    return task.value * 2


def _explode_on_boom(task: Task) -> int:
    if task.key == "boom":
        raise RuntimeError("poisoned task")
    return task.value * 2


def _fail_until_marker(task: Task) -> int:
    """Fails once per marker file, then succeeds (exercises the retry)."""
    from pathlib import Path

    marker = Path(task.key)
    if not marker.exists():
        marker.write_text("tried")
        raise RuntimeError("transient failure")
    return task.value


@dataclass(frozen=True)
class FlakyTask:
    key: str
    marker: str = ""


def _ok_flaky_or_boom(task: FlakyTask) -> int:
    """Always raises for "boom"; fails once per marker file otherwise."""
    from pathlib import Path

    if task.key == "boom":
        raise RuntimeError("poisoned task")
    if task.marker and not Path(task.marker).exists():
        Path(task.marker).write_text("tried")
        raise RuntimeError("transient failure")
    return len(task.key)


def _sleep_forever(task: Task) -> int:
    if task.key == "wedge":
        time.sleep(60)
    return task.value


def _sim_job(key, benchmark="povray", scheme="cm"):
    return SimJob(
        key=key,
        benchmark=benchmark,
        num_ops=1500,
        seed=1,
        warmup_frac=0.3,
        spec=SimSpec(scheme=scheme),
    )


class TestRunTasksBasics:
    def test_results_keyed_in_task_order(self):
        tasks = [Task("b", 2), Task("a", 1)]
        assert run_tasks(tasks, _double) == {"b": 4, "a": 2}
        assert list(run_tasks(tasks, _double)) == ["b", "a"]

    def test_empty_task_list(self):
        assert run_tasks([], _double) == {}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate job keys"):
            run_tasks([Task("x"), Task("x")], _double)

    def test_unknown_on_error_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_tasks([Task("x")], _double, on_error="ignore")

    def test_parallel_equals_serial(self):
        tasks = [Task(str(i), i) for i in range(8)]
        assert run_tasks(tasks, _double, workers=4) == run_tasks(tasks, _double)


class TestFailureCapture:
    def test_raise_mode_propagates_serial(self):
        tasks = [Task("ok", 1), Task("boom")]
        with pytest.raises(RuntimeError, match="poisoned"):
            run_tasks(tasks, _explode_on_boom, retries=0)

    def test_raise_mode_propagates_parallel(self):
        tasks = [Task("ok", 1), Task("boom")]
        with pytest.raises(RuntimeError, match="poisoned"):
            run_tasks(tasks, _explode_on_boom, workers=2, retries=0)

    def test_record_mode_captures_structured_failure(self):
        tasks = [Task("ok", 21), Task("boom"), Task("ok2", 4)]
        results = run_tasks(
            tasks, _explode_on_boom, on_error="record", retries=0
        )
        assert results["ok"] == 42
        assert results["ok2"] == 8
        failure = results["boom"]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "RuntimeError"
        assert failure.message == "poisoned task"
        assert "poisoned task" in failure.traceback
        assert "_explode_on_boom" in failure.traceback
        assert failure.attempts == 1
        assert not failure.timed_out

    def test_failure_record_is_picklable(self):
        failure = run_tasks(
            [Task("boom")], _explode_on_boom, on_error="record", retries=0
        )["boom"]
        assert pickle.loads(pickle.dumps(failure)) == failure

    def test_retry_grants_one_more_attempt(self, tmp_path):
        marker = str(tmp_path / "attempted")
        result = run_tasks(
            [Task(marker, 7)], _fail_until_marker, on_error="record", retries=1
        )
        assert result[marker] == 7  # first attempt failed, retry passed

    def test_exhausted_retries_report_attempt_count(self):
        failure = run_tasks(
            [Task("boom")], _explode_on_boom, on_error="record", retries=1
        )["boom"]
        assert failure.attempts == 2

    def test_serial_and_pool_account_identically(self, tmp_path):
        # A success, a task that fails once then succeeds, and one that
        # always raises: both executors must settle them the same way.
        def run(workers):
            tasks = [
                FlakyTask("ok"),
                FlakyTask("flaky", marker=str(tmp_path / f"marker-{workers}")),
                FlakyTask("boom"),
            ]
            registry = MetricsRegistry()
            seen = []
            results = run_tasks(
                tasks,
                _ok_flaky_or_boom,
                workers=workers,
                on_error="record",
                retries=1,
                metrics=registry,
                on_result=lambda key, value: seen.append(key),
            )
            return results, sorted(seen), registry.snapshot()

        def comparable(value):
            if isinstance(value, JobFailure):
                return (
                    value.key, value.error_type, value.message,
                    value.attempts, value.timed_out,
                )
            return value

        serial, serial_seen, serial_metrics = run(1)
        pool, pool_seen, pool_metrics = run(2)
        assert list(serial) == list(pool) == ["ok", "flaky", "boom"]
        assert {k: comparable(v) for k, v in serial.items()} == {
            k: comparable(v) for k, v in pool.items()
        }
        assert serial["flaky"] == 5
        assert comparable(serial["boom"]) == (
            "boom", "RuntimeError", "poisoned task", 2, False
        )
        assert serial_seen == pool_seen == ["boom", "flaky", "ok"]
        assert serial_metrics == pool_metrics
        assert serial_metrics["runner.tasks_completed"]["value"] == 2
        assert serial_metrics["runner.tasks_retried"]["value"] == 2
        assert serial_metrics["runner.tasks_failed"]["value"] == 1


class TestPoisonedSweepSalvage:
    """The acceptance scenario, on real SimJobs at --jobs 4."""

    def _jobs(self):
        healthy = [
            _sim_job((bench, scheme), benchmark=bench, scheme=scheme)
            for bench in ("gamess", "povray")
            for scheme in ("cm", "nogap")
        ]
        # A benchmark that does not exist poisons trace generation inside
        # the worker, after pickling succeeds.
        poisoned = _sim_job(("poisoned", "cm"), benchmark="no-such-benchmark")
        return healthy, healthy[:2] + [poisoned] + healthy[2:]

    def test_poisoned_job_recorded_healthy_results_identical(self):
        healthy, with_poison = self._jobs()
        serial_reference = run_jobs(healthy, workers=1)
        clear_result_memo()  # the healthy jobs must run again in the sweep
        swept = run_jobs(
            with_poison, workers=4, on_error="record", retries=1
        )
        failure = swept[("poisoned", "cm")]
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 2  # retried once before recording
        for job in healthy:
            assert swept[job.key] == serial_reference[job.key]

    def test_serial_record_mode_matches_parallel(self):
        _, with_poison = self._jobs()
        serial = run_jobs(with_poison, workers=1, on_error="record")
        clear_result_memo()
        parallel = run_jobs(with_poison, workers=4, on_error="record")
        for job in with_poison:
            s, p = serial[job.key], parallel[job.key]
            if isinstance(s, JobFailure):
                assert isinstance(p, JobFailure)
                assert (s.key, s.error_type) == (p.key, p.error_type)
            else:
                assert s == p


class TestTimeout:
    def test_wedged_task_times_out_others_salvaged(self):
        tasks = [Task("ok", 1), Task("wedge"), Task("ok2", 2)]
        results = run_tasks(
            tasks,
            _sleep_forever,
            workers=3,
            on_error="record",
            timeout=3.0,
        )
        assert results["ok"] == 1
        assert results["ok2"] == 2
        failure = results["wedge"]
        assert isinstance(failure, JobFailure)
        assert failure.timed_out
        assert failure.error_type == "TimeoutError"
        assert failure.attempts == 1  # timeouts are never retried
        # The wedged worker may never return: its pool is not reused.
        assert pool_stats()["healthy"] == 0

    def test_timeout_raise_mode_propagates(self):
        tasks = [Task("wedge")] * 1 + [Task("ok", 1)]
        with pytest.raises(TimeoutError, match="wedge"):
            run_tasks(
                tasks, _sleep_forever, workers=2, on_error="raise", timeout=2.0
            )

    def test_timeout_raise_mode_journals_no_failure(self):
        # Raise mode records nothing for the task it raises on, so a
        # journal never holds a JobFailure that a resume cannot load.
        seen = []
        with pytest.raises(TimeoutError, match="wedge"):
            run_tasks(
                [Task("wedge"), Task("ok", 1)],
                _sleep_forever,
                workers=2,
                on_error="raise",
                timeout=1.0,
                on_result=lambda key, value: seen.append((key, value)),
            )
        assert not [v for _, v in seen if isinstance(v, JobFailure)]
