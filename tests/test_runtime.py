"""The execution plane: zero-copy trace segments + warm worker pools.

Acceptance anchors (ISSUE 8):

* a published trace round-trips through shared memory byte-identical,
  as **read-only** views, and is digest-verified on attach — a torn or
  recycled segment falls back to regeneration instead of feeding a
  simulation;
* the owner unlinks every segment exactly once (idempotent cleanup, no
  ``/dev/shm`` residue);
* ``run_tasks``/``run_jobs`` share one warm pool across calls (the fork
  generation does not advance), recycle it after a worker crash, and
  batched dispatch returns byte-identical results to serial;
* a trace is materialized **at most once per run**: the parent builds
  each distinct key once, workers only attach
  (``runner.worker_traces_built`` stays zero).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis import runner
from repro.analysis.runner import (
    JobFailure,
    SimJob,
    SimSpec,
    clear_result_memo,
    run_jobs,
    run_tasks,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime import shm
from repro.runtime.pool import (
    WorkerPool,
    get_shared_pool,
    pool_stats,
    shutdown_shared_pool,
)
from repro.runtime.shm import (
    SharedTraceRegistry,
    TraceAttachSetup,
    announce,
    announced_keys,
    attach_trace,
    cleanup_shared_registry,
    reset_attachments,
    segment_prefix,
)
from repro.workloads.spec import build_trace
from repro.workloads.store import DEFAULT_STORE, trace_digest

HAS_DEV_SHM = os.path.isdir("/dev/shm")


@pytest.fixture(autouse=True)
def plane_isolation():
    """Run every test against a cold plane, and leave nothing behind."""
    reset_attachments()
    shutdown_shared_pool()
    cleanup_shared_registry()
    yield
    reset_attachments()
    shutdown_shared_pool()
    cleanup_shared_registry()


def _segment_file(name):
    return os.path.join("/dev/shm", name)


class TestSharedTraceRegistry:
    KEY = ("povray", 384, 97)

    def _publish(self, registry, key=None, digest=None):
        key = key or self.KEY
        trace = build_trace(*key)
        digest = digest or trace_digest(trace)
        return trace, registry.publish(key, trace, digest)

    def test_publish_attach_roundtrip_byte_identical(self):
        registry = SharedTraceRegistry()
        try:
            trace, info = self._publish(registry)
            announce([info])
            attached, digest = attach_trace(self.KEY)
            assert digest == info.digest
            assert attached.name == trace.name
            assert np.array_equal(attached.is_store, trace.is_store)
            assert np.array_equal(attached.block_addr, trace.block_addr)
            assert np.array_equal(attached.gap, trace.gap)
        finally:
            reset_attachments()
            registry.cleanup()

    def test_attached_views_are_read_only(self):
        registry = SharedTraceRegistry()
        try:
            _, info = self._publish(registry)
            announce([info])
            attached, _ = attach_trace(self.KEY)
            for column in (attached.is_store, attached.block_addr, attached.gap):
                assert not column.flags.writeable
            with pytest.raises(ValueError):
                attached.gap[0] = 123
        finally:
            reset_attachments()
            registry.cleanup()

    def test_publish_is_idempotent_per_key(self):
        registry = SharedTraceRegistry()
        try:
            trace, first = self._publish(registry)
            again = registry.publish(self.KEY, trace, first.digest)
            assert again is first
            assert registry.published == 1
            assert len(registry) == 1
            assert registry.stats()["segments"] == 1
            assert registry.stats()["bytes"] == first.size
        finally:
            registry.cleanup()

    @pytest.mark.skipif(not HAS_DEV_SHM, reason="requires /dev/shm")
    def test_cleanup_unlinks_and_is_idempotent(self):
        registry = SharedTraceRegistry()
        _, info = self._publish(registry)
        assert os.path.exists(_segment_file(info.segment))
        assert info.segment.startswith(segment_prefix())
        assert registry.cleanup() == 1
        assert not os.path.exists(_segment_file(info.segment))
        assert registry.cleanup() == 0

    def test_attach_after_unlink_falls_back_and_drops_key(self):
        registry = SharedTraceRegistry()
        _, info = self._publish(registry)
        announce([info])
        registry.cleanup()
        assert attach_trace(self.KEY) is None
        # The stale announcement is dropped: the rebuild cost is paid
        # once, not on every subsequent lookup.
        assert self.KEY not in announced_keys()

    def test_attach_rejects_digest_mismatch(self):
        registry = SharedTraceRegistry()
        try:
            self._publish(registry, digest="0" * 64)
            announce(registry.manifest())
            assert attach_trace(self.KEY) is None
            assert self.KEY not in announced_keys()
        finally:
            reset_attachments()
            registry.cleanup()

    def test_attach_setup_survives_pickling(self):
        registry = SharedTraceRegistry()
        try:
            _, info = self._publish(registry)
            setup = TraceAttachSetup(manifest=(info,))
            restored = pickle.loads(pickle.dumps(setup))
            reset_attachments()
            restored()
            assert self.KEY in announced_keys()
        finally:
            reset_attachments()
            registry.cleanup()


class TestAttachRetry:
    """A missing segment is not retried: one attach attempt, then rebuild."""

    def test_warm_pool_rebuilds_trace_whose_segment_is_missing(
        self, monkeypatch
    ):
        publish = SharedTraceRegistry.publish

        def publish_then_unlink(registry, key, trace, digest):
            info = publish(registry, key, trace, digest)
            # The owner's handle stays; its cleanup finds the name gone.
            registry._segments[key][0].unlink()
            return info

        monkeypatch.setattr(SharedTraceRegistry, "publish", publish_then_unlink)
        DEFAULT_STORE.clear()
        clear_result_memo()
        metrics = MetricsRegistry()
        # Trace keys no other test of this module publishes.
        jobs = _sweep_jobs(num_ops=480)
        try:
            # The pool forks and inherits these traces...
            shutdown_shared_pool()
            run_jobs(_sweep_jobs(num_ops=448), workers=2)
            # ...so these new keys reach the workers only through shm.
            pooled = run_jobs(jobs, workers=2, metrics=metrics)
        finally:
            shutdown_shared_pool()
        snapshot = metrics.snapshot(include_nondeterministic=True)
        assert snapshot["runner.worker_traces_built"]["value"] >= 1
        assert snapshot["runner.worker_trace_attaches"]["value"] == 0
        DEFAULT_STORE.clear()
        clear_result_memo()
        serial = run_jobs(jobs, workers=1)
        assert pooled == serial
        assert list(pooled) == list(serial)


@dataclass(frozen=True)
class Task:
    key: str
    value: int = 0


def _double(task: Task) -> int:
    return task.value * 2


def _exit_hard(task: Task) -> int:
    os._exit(13)  # simulate a worker segfault: no exception, no cleanup


class TestWarmPool:
    def test_shared_pool_reused_across_runs(self):
        tasks = [Task(str(i), i) for i in range(6)]
        expected = {str(i): i * 2 for i in range(6)}
        assert run_tasks(tasks, _double, workers=2) == expected
        first = pool_stats()
        assert first["healthy"] == 1 and first["runs"] == 1
        assert run_tasks(tasks, _double, workers=2) == expected
        second = pool_stats()
        # Same fork generation serving run after run — that is the tax
        # the warm pool exists to remove.
        assert second["generation"] == first["generation"]
        assert second["pools_created"] == first["pools_created"]
        assert second["runs"] == 2

    def test_worker_count_change_recycles_pool(self):
        tasks = [Task(str(i), i) for i in range(4)]
        run_tasks(tasks, _double, workers=2)
        first = pool_stats()
        run_tasks(tasks, _double, workers=3)
        second = pool_stats()
        assert second["workers"] == 3
        assert second["generation"] > first["generation"]

    def test_worker_crash_records_and_recycles(self):
        tasks = [Task(str(i), i) for i in range(4)]
        results = run_tasks(
            tasks, _exit_hard, workers=2, on_error="record", retries=0
        )
        assert all(isinstance(r, JobFailure) for r in results.values())
        crashed = pool_stats()
        assert crashed["healthy"] == 0
        # The next acquisition forks a fresh generation and recovers.
        assert run_tasks(tasks, _double, workers=2) == {
            str(i): i * 2 for i in range(4)
        }
        recovered = pool_stats()
        assert recovered["healthy"] == 1
        assert recovered["generation"] > crashed["generation"]

    @pytest.mark.parametrize("count", [3, 11, 40, 300])
    def test_batched_results_equal_serial_in_key_order(self, count):
        # At workers=2 these counts batch 1, 2, 5 and 32 tasks per future.
        tasks = [Task(str(i), i) for i in range(count)]
        serial = run_tasks(tasks, _double, workers=1)
        batched = run_tasks(tasks, _double, workers=2)
        assert batched == serial
        assert list(batched) == list(serial)

    def test_run_jobs_acquires_pool_through_module_global(self, monkeypatch):
        # bench/spans.py times pool acquisition by wrapping this module
        # attribute; the runner must look it up on every acquisition.
        calls = []

        def counting_get_shared_pool(workers):
            calls.append(workers)
            return get_shared_pool(workers)

        monkeypatch.setattr(runner, "get_shared_pool", counting_get_shared_pool)
        results = run_jobs(_sweep_jobs(), workers=2)
        assert len(results) == 4
        assert calls == [2]

    def test_worker_pool_validates_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)


def _sweep_jobs(num_ops=400):
    spec = SimSpec(scheme="m")
    return [
        SimJob(
            key=("m", benchmark, seed),
            benchmark=benchmark,
            num_ops=num_ops,
            seed=seed,
            warmup_frac=0.0,
            spec=spec,
        )
        for benchmark in ("gamess", "mcf")
        for seed in (1, 2)
    ]


class TestTraceMaterializedOncePerRun:
    """Satellite 1: attach-first is the default, builds happen once."""

    def test_parallel_run_builds_each_trace_once_in_parent(self):
        DEFAULT_STORE.clear()
        metrics = MetricsRegistry()
        first = run_jobs(_sweep_jobs(num_ops=400), workers=2, metrics=metrics)
        assert len(first) == 4
        # The parent materialized each distinct (benchmark, num_ops,
        # seed) exactly once before the pool forked; no worker rebuilt.
        assert DEFAULT_STORE.built == 4
        snapshot = metrics.snapshot(include_nondeterministic=True)
        assert snapshot["runner.worker_traces_built"]["value"] == 0

        # A second sweep over *new* trace keys runs on the warm pool,
        # whose workers predate these traces: they must adopt the
        # zero-copy segments instead of rebuilding.
        second = run_jobs(_sweep_jobs(num_ops=512), workers=2, metrics=metrics)
        assert len(second) == 4
        assert DEFAULT_STORE.built == 8
        snapshot = metrics.snapshot(include_nondeterministic=True)
        assert snapshot["runner.worker_traces_built"]["value"] == 0
        assert snapshot["runner.worker_trace_attaches"]["value"] >= 1
        assert snapshot["store.shm_segments"]["value"] == 8

    def test_parallel_output_matches_serial(self):
        DEFAULT_STORE.clear()
        jobs = _sweep_jobs()
        parallel = run_jobs(jobs, workers=2)
        DEFAULT_STORE.clear()
        clear_result_memo()
        serial = run_jobs(jobs, workers=1)
        assert parallel == serial
        assert list(parallel) == list(serial)

    @pytest.mark.skipif(not HAS_DEV_SHM, reason="requires /dev/shm")
    def test_worker_crash_does_not_unlink_live_segments(self):
        """A dying worker must never tear down the owner's segments.

        Workers inherit the owner's multiprocessing resource tracker
        (ensured before the first fork); a private per-worker tracker
        would "helpfully" unlink every attached segment when the worker
        exits, yanking mappings out from under its siblings.
        """
        registry = shm.shared_registry()
        trace = build_trace("povray", 256, 31)
        info = registry.publish(
            ("povray", 256, 31), trace, trace_digest(trace)
        )
        tasks = [Task(str(i), i) for i in range(4)]
        results = run_tasks(
            tasks, _exit_hard, workers=2, on_error="record", retries=0
        )
        assert all(isinstance(r, JobFailure) for r in results.values())
        # The crash reaped the pool, not the plane.
        assert os.path.exists(_segment_file(info.segment))
        cleanup_shared_registry()
        assert not os.path.exists(_segment_file(info.segment))

