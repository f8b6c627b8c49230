"""Parallel experiment runner: fan simulation jobs across worker processes.

Every timing artifact (Table IV, Figs. 6-9) is a sweep over
(benchmark, configuration) pairs whose simulations are completely
independent — only the final reduction (geometric means, update ratios)
couples them.  This module turns such a sweep into a list of
:class:`SimJob` descriptions, executes them serially or on a process
pool, and returns results keyed by each job's stable key so the caller's
reduction is *identical* regardless of worker count or completion order:

* a job is pure data (picklable dataclasses of primitives and frozen
  config dataclasses), so workers rebuild the simulator from scratch and
  every run is bit-deterministic;
* traces come from the process-local memoizing
  :mod:`repro.workloads.store`; in parallel runs the parent publishes
  each materialized trace once into the shared-memory plane
  (:mod:`repro.runtime.shm`) and workers *attach* zero-copy read-only
  views instead of rebuilding — a worker materializes a trace only when
  the plane is cold or disabled;
* jobs are dispatched in **batches** over a process-wide *warm*
  :class:`~repro.runtime.pool.WorkerPool` (:mod:`repro.runtime.pool`)
  that survives across ``run_tasks`` calls, amortizing both pool
  construction and per-future pickle/IPC; ``SECPB_EXEC_PLANE=0``
  restores the legacy fresh-pool-per-call, one-future-per-task
  behavior;
* results are assembled in *submission order* into a plain dict — the
  parallel output is the same object, bit for bit, as the serial one,
  whatever the batching;
* :func:`run_jobs` memoizes results by job *content* for the life of
  the process, so a simulation that several artifacts share runs once
  (:func:`clear_result_memo` forgets them).

The generic engine underneath, :func:`run_tasks`, also powers the
fault-injection campaign (:mod:`repro.fault`) and is **hardened**: a
task that raises is retried once and — under ``on_error="record"`` —
captured as a picklable :class:`JobFailure` instead of poisoning the
whole sweep, so callers can distinguish "the simulation says
unrecoverable" from "the worker blew up" and still salvage every other
task's result.  A per-task timeout bounds how long the harvest waits on
any one future.

It is also **resumable** (:mod:`repro.durability`): ``completed`` seeds
the run with journaled results (those tasks are never re-executed),
``on_result`` fires as each fresh result lands (the journal-append
hook), and a tripped ``stop`` token (SIGINT/SIGTERM, ``--deadline``)
makes the runner stop submitting, salvage in-flight work for a short
grace period, and raise
:class:`~repro.durability.interrupt.RunInterrupted` carrying everything
completed so far — the caller checkpoints and exits resumable.

Per-job progress and wall-clock timing are emitted on the
``repro.analysis.runner`` logger (enable with ``--verbose`` on the CLI);
logging never touches stdout, keeping rendered artifacts byte-identical
across worker counts.
"""

from __future__ import annotations

import logging
import time
import traceback
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..baselines.strict import StrictPersistencySimulator
from ..core.controller import TimingCalibration
from ..core.schemes import SCHEMES
from ..core.simulator import SecurePersistencySimulator
from ..durability.interrupt import RunInterrupted, StopToken
from ..envfault import context as _envfault
from ..envfault import procfault as _procfault
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import LANE_STORES, Tracer
from ..resilience import RetryPolicy
from ..runtime.pool import (
    WorkerPool,
    discard_shared_pool,
    ephemeral_pool,
    get_shared_pool,
    plane_enabled,
)
from ..runtime.shm import (
    TraceAttachSetup,
    attach_retries,
    shared_registry,
    shm_enabled,
)
from ..security.bmf import ForestTimingModel
from ..sim.config import SystemConfig
from ..sim.stats import SimulationResult
from ..workloads.store import DEFAULT_STORE, get_trace, store_counters

logger = logging.getLogger(__name__)

#: How often (seconds) a blocked harvest re-polls the stop token.
_STOP_POLL_INTERVAL = 0.25

#: Wall-clock grace (seconds) granted to in-flight futures at interrupt.
_SALVAGE_GRACE = 5.0

JobKey = Tuple[Any, ...]
"""A job's stable identity — any hashable tuple, unique within one sweep."""


@dataclass(frozen=True)
class JobFailure:
    """Structured record of one task that did not produce a result.

    Picklable pure data, so it crosses the pool boundary and serializes
    into campaign reports.  ``timed_out`` distinguishes a harvest-timeout
    abandonment from a worker exception; ``attempts`` counts every
    execution try (1 = failed with no retry budget, 2 = failed twice).
    """

    key: JobKey
    error_type: str
    message: str
    traceback: str
    attempts: int
    timed_out: bool = False

    def __str__(self) -> str:
        kind = "timeout" if self.timed_out else self.error_type
        return f"JobFailure({self.key!r}: {kind}: {self.message})"


@dataclass(frozen=True)
class SimSpec:
    """What to simulate: a picklable description of one simulator setup.

    Attributes:
        simulator: ``"secure"`` (:class:`SecurePersistencySimulator`) or
            ``"strict"`` (the SP baseline).
        scheme: registry name of the SecPB scheme; ``None`` is the
            insecure BBB baseline (``simulator="secure"`` only).
        secpb_entries: optional SecPB size override (Fig. 7 sweeps).
        bmf_cut: optional BMF cut height — builds a fresh
            :class:`~repro.security.bmf.ForestTimingModel` per run
            (Fig. 9's DBMF=2 / SBMF=5 variants).
        root_cache_bytes: BMF root-cache size when ``bmf_cut`` is set.
        config: optional base system configuration (default Table I).
        calibration: optional timing calibration (default constants).
    """

    simulator: str = "secure"
    scheme: Optional[str] = None
    secpb_entries: Optional[int] = None
    bmf_cut: Optional[int] = None
    root_cache_bytes: int = 4096
    config: Optional[SystemConfig] = None
    calibration: Optional[TimingCalibration] = None

    def __post_init__(self) -> None:
        if self.simulator not in ("secure", "strict"):
            raise ValueError(f"unknown simulator kind {self.simulator!r}")
        if self.scheme is not None and self.scheme not in SCHEMES:
            raise KeyError(
                f"unknown scheme {self.scheme!r}; available: {sorted(SCHEMES)}"
            )
        if self.scheme is not None and self.simulator == "strict":
            raise ValueError(
                f"scheme {self.scheme!r} needs simulator='secure'; "
                "the strict baseline takes no scheme"
            )


@dataclass(frozen=True)
class SimJob:
    """One unit of work: a :class:`SimSpec` applied to one trace.

    ``key`` orders and identifies the job in the result mapping; keys
    must be unique within one :func:`run_jobs` call.
    """

    key: JobKey
    benchmark: str
    num_ops: int
    seed: int
    warmup_frac: float
    spec: SimSpec


@dataclass(frozen=True)
class _SimContent:
    """Everything that determines a job's result, with defaults resolved.

    Two jobs with equal content simulate the same thing whatever their
    keys, so this is the key of the result memo.  ``bmf`` is ``(cut
    height, root-cache bytes)``, or ``None`` without a BMF cut, where the
    simulator never reads the root-cache size.
    """

    benchmark: str
    num_ops: int
    seed: int
    warmup_frac: float
    simulator: str
    scheme: Optional[str]
    bmf: Optional[Tuple[int, int]]
    config: SystemConfig
    calibration: TimingCalibration


def _resolve(job: SimJob) -> _SimContent:
    """The one place a job's spec is resolved (memo key and simulator)."""
    spec = job.spec
    config = spec.config if spec.config is not None else SystemConfig()
    if spec.secpb_entries is not None:
        config = config.with_secpb_entries(spec.secpb_entries)
    return _SimContent(
        benchmark=job.benchmark,
        num_ops=job.num_ops,
        seed=job.seed,
        warmup_frac=job.warmup_frac,
        simulator=spec.simulator,
        scheme=spec.scheme,
        bmf=(
            (spec.bmf_cut, spec.root_cache_bytes)
            if spec.bmf_cut is not None
            else None
        ),
        config=config,
        calibration=(
            spec.calibration
            if spec.calibration is not None
            else TimingCalibration()
        ),
    )


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job in the current process (trace via the memoizing store)."""
    content = _resolve(job)
    config = content.config
    trace = get_trace(content.benchmark, content.num_ops, content.seed)
    bmt_levels_fn = None
    if content.bmf is not None:
        cut_height, root_cache_bytes = content.bmf
        forest = ForestTimingModel(
            full_height=config.security.bmt_levels,
            cut_height=cut_height,
            root_cache_bytes=root_cache_bytes,
        )
        bmt_levels_fn = forest.levels
    if content.simulator == "strict":
        simulator = StrictPersistencySimulator(
            config=config,
            calibration=content.calibration,
            bmt_levels_fn=bmt_levels_fn,
        )
    else:
        scheme = SCHEMES[content.scheme] if content.scheme is not None else None
        simulator = SecurePersistencySimulator(
            config=config,
            scheme=scheme,
            calibration=content.calibration,
            bmt_levels_fn=bmt_levels_fn,
        )
    return simulator.run(trace, content.warmup_frac)


_RESULT_MEMO: Dict[_SimContent, SimulationResult] = {}
"""Process-wide results of :func:`run_jobs`, keyed by job content."""


def clear_result_memo() -> None:
    """Forget every memoized simulation result (see :func:`run_jobs`)."""
    _RESULT_MEMO.clear()


def _private_copy(result: SimulationResult) -> SimulationResult:
    """A copy whose ``stats`` dict no other holder can mutate."""
    return replace(result, stats=dict(result.stats))


def _timed_call(fn: Callable[[Any], Any], task: Any) -> Tuple[Any, float]:
    """Module-level wrapper (picklable) adding wall-clock timing."""
    start = time.perf_counter()
    result = fn(task)
    return result, time.perf_counter() - start


def _check_unique_keys(tasks: Sequence[Any]) -> None:
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        seen: Set[JobKey] = set()
        dupes: Set[JobKey] = set()
        for key in keys:
            (dupes if key in seen else seen).add(key)
        raise ValueError(f"duplicate job keys: {sorted(map(str, dupes))}")


def _failure_for(
    key: JobKey,
    exc: BaseException,
    attempts: int,
    tb: Optional[str] = None,
) -> JobFailure:
    """Build a :class:`JobFailure`; ``tb`` carries a worker-side traceback.

    Batched pool execution formats the traceback in the worker (where
    the frames still exist) and ships the string; the serial path and
    pool-level failures format the local exception instead.
    """
    return JobFailure(
        key=key,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback=tb if tb is not None else "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        attempts=attempts,
    )


def _record(
    results: Dict[JobKey, Any],
    key: JobKey,
    value: Any,
    on_result: Optional[Callable[[JobKey, Any], None]],
) -> None:
    """Store one fresh result and fire the checkpoint hook (journal).

    An ``OSError`` out of the hook (ENOSPC or EIO on the journal append)
    means results can no longer be made durable — continuing would burn
    work that a crash then loses.  It converts to
    :class:`RunInterrupted` carrying everything recorded so far, so the
    caller checkpoints what *is* journaled and exits resumable (75)
    instead of crashing with a raw traceback.
    """
    results[key] = value
    if on_result is not None:
        try:
            on_result(key, value)
        except OSError as exc:
            raise RunInterrupted(
                f"checkpoint append failed ({type(exc).__name__}: {exc}); "
                f"free space and resume",
                results,
            ) from exc


class _RunnerObs:
    """Per-run observability sink: metrics registry + optional job trace.

    Built once per :func:`run_tasks` call when the caller passed a
    ``metrics`` registry and/or a ``tracer``; the harvest paths call its
    methods per task outcome.  Wall-clock quantities (task seconds, job
    trace timestamps) are inherently non-deterministic across worker
    counts, so the histogram is registered ``deterministic=False`` and
    excluded from reproducible metric snapshots; the event *counters*
    (completed/failed/retried/...) are deterministic and do compare
    across ``--jobs`` values.
    """

    def __init__(self, metrics: Optional[MetricsRegistry], tracer: Optional[Tracer]):
        self._metrics = metrics
        if tracer is not None:
            self._emit_job = tracer.bind_complete("runner.job", "runner", LANE_STORES)
            self._t0 = time.perf_counter()
        else:
            self._emit_job = None

    def _count(self, name: str, help: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, help).inc()

    def run_started(self, total: int, resumed: int) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "runner.tasks_total", "Tasks submitted across runs"
            ).inc(total)
            self._metrics.counter(
                "runner.tasks_resumed", "Tasks satisfied from a resumed journal"
            ).inc(resumed)

    def tasks_memoized(self, count: int) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "runner.tasks_memoized",
                "Jobs answered from the in-process result memo",
            ).inc(count)

    def task_done(self, key: JobKey, elapsed: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "runner.tasks_completed", "Tasks that produced a result"
            ).inc()
            self._metrics.histogram(
                "runner.task_seconds",
                "Per-task wall-clock seconds",
                deterministic=False,
            ).observe(elapsed)
        if self._emit_job is not None:
            end = time.perf_counter() - self._t0
            self._emit_job(
                max(0.0, end - elapsed), elapsed, {"key": str(key)}
            )

    def task_failed(self) -> None:
        self._count("runner.tasks_failed", "Tasks recorded as JobFailure")

    def task_timeout(self) -> None:
        self._count("runner.tasks_timeout", "Tasks abandoned at harvest timeout")

    def task_retried(self) -> None:
        self._count("runner.tasks_retried", "Task executions retried after an exception")

    def task_salvaged(self) -> None:
        self._count("runner.tasks_salvaged", "In-flight results salvaged at interrupt")

    # Execution-plane metrics.  All of these vary with worker count,
    # batching, and pool reuse history, so every one is registered
    # ``deterministic=False`` — reproducible snapshots stay identical
    # across ``--jobs`` values, exactly like the wall-clock histogram.

    def pool_acquired(self, pool: "WorkerPool") -> None:
        if self._metrics is None:
            return
        self._metrics.gauge(
            "runner.pool_workers",
            "Worker count of the acquired pool",
            deterministic=False,
        ).set(pool.workers)
        self._metrics.gauge(
            "runner.pool_generation",
            "Fork generation of the acquired pool",
            deterministic=False,
        ).set(pool.generation)
        self._metrics.counter(
            "runner.pool_reuses",
            "Acquisitions served by an already-warm pool",
            deterministic=False,
        ).inc(1 if pool.runs > 1 else 0)

    def batches_submitted(self, count: int) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "runner.batches_submitted",
                "Task batches handed to pool workers",
                deterministic=False,
            ).inc(count)

    def worker_store_stats(
        self, built: int, attached: int, shm_retries: int = 0
    ) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "runner.worker_traces_built",
                "Traces materialized from scratch inside pool workers",
                deterministic=False,
            ).inc(built)
            self._metrics.counter(
                "runner.worker_trace_attaches",
                "Zero-copy shared-memory trace attaches inside pool workers",
                deterministic=False,
            ).inc(attached)
            self._metrics.counter(
                "runner.shm_attach_retries",
                "Transient shm attach ENOENT races retried inside workers",
                deterministic=False,
            ).inc(shm_retries)



def _run_tasks_serial(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    on_error: str,
    retry_policy: RetryPolicy,
    stop: Optional[StopToken],
    on_result: Optional[Callable[[JobKey, Any], None]],
    obs: Optional[_RunnerObs] = None,
) -> Dict[JobKey, Any]:
    total = len(tasks)
    results: Dict[JobKey, Any] = {}
    for index, task in enumerate(tasks, start=1):
        if stop is not None and stop.check():
            raise RunInterrupted(stop.reason, results)
        # The policy's attempt iterator owns the retry budget and any
        # inter-attempt backoff (zero-delay for the runner's default
        # policy, so this is byte-identical to the pre-resilience loop).
        for attempt in retry_policy.attempts_iter(str(task.key)):
            try:
                result, elapsed = _timed_call(fn, task)
            except Exception as exc:
                if retry_policy.allows_retry(attempt):
                    if obs is not None:
                        obs.task_retried()
                    logger.info(
                        "[%d/%d] %s failed (%s), retrying",
                        index, total, task.key, type(exc).__name__,
                    )
                    continue
                if on_error == "raise":
                    raise
                _record(
                    results, task.key,
                    _failure_for(task.key, exc, attempt), on_result,
                )
                if obs is not None:
                    obs.task_failed()
                logger.info("[%d/%d] %s: FAILED after %d attempt(s)",
                            index, total, task.key, attempt)
                break
            _record(results, task.key, result, on_result)
            if obs is not None:
                obs.task_done(task.key, elapsed)
            logger.info(
                "[%d/%d] %s: done in %.2fs", index, total, task.key, elapsed
            )
            break
    return results


class _StopRequested(Exception):
    """Internal: the stop token tripped while the harvest was waiting."""


def _wait_result(
    future: Any,
    timeout: Optional[float],
    stop: Optional[StopToken],
) -> Any:
    """``future.result`` with the wait sliced so the stop token is polled.

    Preserves the per-task timeout semantics (measured from when the
    harvest starts waiting on this future) while noticing a tripped
    token within :data:`_STOP_POLL_INTERVAL` seconds.
    """
    waited = 0.0
    while True:
        if stop is not None and stop.check():
            raise _StopRequested()
        remaining = None if timeout is None else timeout - waited
        if remaining is not None and remaining <= 0:
            raise FutureTimeoutError()
        chunk = (
            _STOP_POLL_INTERVAL
            if remaining is None
            else min(_STOP_POLL_INTERVAL, remaining)
        )
        try:
            return future.result(timeout=chunk)
        except FutureTimeoutError:
            waited += chunk


@dataclass(frozen=True)
class _BatchError:
    """One task's failure inside a batch, formatted worker-side.

    Carries both the exception object (re-raised under
    ``on_error="raise"``) and the traceback string formatted where the
    frames still existed, so a recorded :class:`JobFailure` shows the
    worker stack — not the batch plumbing.
    """

    exception: BaseException
    error_type: str
    traceback: str


_BatchOutcome = Any  # Tuple[result, elapsed] | _BatchError


def _run_batch(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    setup: Optional[Callable[[], None]],
) -> Tuple[List[_BatchOutcome], int, int, int]:
    """Worker-side: run one batch of tasks sequentially, one IPC round-trip.

    ``setup`` (when present) re-announces the owner's shared-memory
    manifest before the first task, so a warm pool's workers see traces
    published after they were forked; a setup failure only disables the
    zero-copy path (tasks fall back to local regeneration).  Returns the
    per-task outcomes in task order plus the batch's trace-store deltas
    ``(built, attach_hits, shm_retries)`` for the runner's observability
    counters.

    When the fault plane is armed (:mod:`repro.envfault`), each task
    boundary is a ``worker.task`` injection site — a due
    ``worker_sigkill`` takes the whole process down mid-batch, exactly
    like the OOM killer, and the parent must absorb the resulting
    :class:`BrokenProcessPool`.
    """
    if setup is not None:
        try:
            setup()
        except Exception:
            logger.exception("batch setup failed; traces rebuilt locally")
    built_before, attached_before = store_counters()
    retries_before = attach_retries()
    outcomes: List[_BatchOutcome] = []
    for task in tasks:
        if _envfault.CURRENT is not None:
            _procfault.maybe_kill_worker("worker.task", _envfault.CURRENT)
        start = time.perf_counter()
        try:
            result = fn(task)
        except Exception as exc:
            outcomes.append(
                _BatchError(
                    exception=exc,
                    error_type=type(exc).__name__,
                    traceback=traceback.format_exc(),
                )
            )
        else:
            outcomes.append((result, time.perf_counter() - start))
    built_after, attached_after = store_counters()
    return (
        outcomes,
        built_after - built_before,
        attached_after - attached_before,
        attach_retries() - retries_before,
    )


def _chunk_size(
    total: int,
    workers: int,
    chunk: Optional[int],
    timeout: Optional[float],
) -> int:
    """Tasks per submitted batch.

    An explicit ``chunk`` wins.  A per-task ``timeout`` forces 1: the
    harvest deadline is per *future*, so batching would make tasks share
    one budget and break the wedged-worker semantics.  Otherwise the
    size adapts to roughly four batches per worker (capped at 32) —
    small enough that stragglers still balance across the pool, large
    enough to amortize pickle/IPC per future.
    """
    if timeout is not None:
        return 1
    if chunk is not None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        return chunk
    return max(1, min(32, -(-total // (workers * 4))))


def _salvage_in_flight(
    remaining: Sequence[Tuple[Sequence[Any], Any]],
    results: Dict[JobKey, Any],
    on_result: Optional[Callable[[JobKey, Any], None]],
    obs: Optional[_RunnerObs] = None,
) -> None:
    """At interrupt: cancel what never started, keep what finished anyway.

    In-flight batch futures get a shared :data:`_SALVAGE_GRACE` budget
    to deliver — work a worker already paid for should reach the
    journal, not be thrown away.  Every completed outcome of a delivered
    batch is salvaged; anything still running after the grace is
    abandoned (it re-runs on ``--resume``).
    """
    # Cancel everything still queued in ONE pass before waiting on
    # anything — otherwise freed workers keep picking up queued futures
    # while we salvage, and "stop submitting" never actually stops.
    in_flight = [
        (batch, future) for batch, future in remaining if not future.cancel()
    ]
    deadline = time.monotonic() + _SALVAGE_GRACE
    for batch, future in in_flight:
        grace = max(0.0, deadline - time.monotonic())
        try:
            outcomes, _built, _attached, _retries = future.result(
                timeout=grace
            )
        except FutureTimeoutError:
            continue  # still running; abandoned for the resume to redo
        except Exception:
            continue  # failed in flight; the resume will retry it
        for task, outcome in zip(batch, outcomes):
            if isinstance(outcome, _BatchError):
                continue  # failed in flight; the resume will retry it
            result, _elapsed = outcome
            _record(results, task.key, result, on_result)
            if obs is not None:
                obs.task_salvaged()
            logger.info("%s: salvaged at interrupt", task.key)


def _acquire_pool(
    pool: Optional[WorkerPool], workers: int, total: int
) -> Tuple[WorkerPool, bool]:
    """The pool for this run and whether it is the shared (warm) one.

    With the execution plane on, every caller shares one process-wide
    warm pool; with ``SECPB_EXEC_PLANE=0`` each run gets a single-use
    pool sized to its work (the legacy behavior).  An explicitly passed
    pool is used as-is.
    """
    if pool is not None:
        return pool, pool.persistent
    if plane_enabled():
        return get_shared_pool(workers), True
    return ephemeral_pool(min(workers, total)), False


def _run_tasks_pool(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    workers: int,
    on_error: str,
    retry_policy: RetryPolicy,
    timeout: Optional[float],
    stop: Optional[StopToken],
    on_result: Optional[Callable[[JobKey, Any], None]],
    obs: Optional[_RunnerObs] = None,
    chunk: Optional[int] = None,
    setup: Optional[Callable[[], None]] = None,
    pool: Optional[WorkerPool] = None,
) -> Dict[JobKey, Any]:
    total = len(tasks)
    results: Dict[JobKey, Any] = {}
    #: key -> prior execution attempts (for retry accounting)
    attempts: Dict[JobKey, int] = {task.key: 0 for task in tasks}
    timed_out = False
    interrupted = False
    completed_normally = False
    pool, shared = _acquire_pool(pool, workers, total)
    chunk_size = _chunk_size(total, workers, chunk, timeout)
    if obs is not None:
        obs.pool_acquired(pool)
    try:
        pending = list(tasks)
        while pending:
            if not pool.healthy:
                # A crashed worker broke the previous round's pool; the
                # retry round gets a fresh generation so one casualty
                # cannot poison every subsequent attempt.
                if shared:
                    discard_shared_pool(pool)
                    pool = get_shared_pool(workers)
                else:
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ephemeral_pool(min(workers, len(pending)))
                if obs is not None:
                    obs.pool_acquired(pool)
            round_total = len(pending)
            batches = [
                pending[start:start + chunk_size]
                for start in range(0, round_total, chunk_size)
            ]
            futures = [
                (batch, pool.submit(_run_batch, fn, batch, setup))
                for batch in batches
            ]
            if obs is not None:
                obs.batches_submitted(len(futures))
            retry: List[Any] = []
            index = 0
            for batch_index, (batch, future) in enumerate(futures):
                try:
                    if _envfault.CURRENT is not None:
                        # The harvest is a `runner.harvest` injection
                        # site: a due `broken_pool` storm raises here,
                        # inside the try, so it flows through the same
                        # mark-unhealthy/retry path a real one would.
                        _procfault.maybe_break_pool(
                            "runner.harvest", _envfault.CURRENT
                        )
                    # Harvest in submission order; the per-task timeout
                    # is measured from when the harvest starts waiting on
                    # the future (chunk size is 1 whenever a timeout is
                    # set), so a task never gets *less* than `timeout`
                    # seconds of wall clock.
                    outcomes, built, attached, shm_retries = _wait_result(
                        future, timeout, stop
                    )
                except _StopRequested:
                    interrupted = True
                    _salvage_in_flight(
                        futures[batch_index:], results, on_result, obs
                    )
                    assert stop is not None
                    raise RunInterrupted(stop.reason, results)
                except FutureTimeoutError:
                    # The worker may be wedged; record and move on — the
                    # remaining futures are still harvested (salvage).
                    timed_out = True
                    for task in batch:
                        key = task.key
                        attempts[key] += 1
                        index += 1
                        if obs is not None:
                            obs.task_timeout()
                        _record(
                            results, key,
                            JobFailure(
                                key=key,
                                error_type="TimeoutError",
                                message=(
                                    f"no result within {timeout}s; "
                                    "worker abandoned"
                                ),
                                traceback="",
                                attempts=attempts[key],
                                timed_out=True,
                            ),
                            on_result,
                        )
                        logger.info(
                            "[%d/%d] %s: TIMED OUT after %.1fs",
                            index, round_total, key, timeout,
                        )
                        if on_error == "raise":
                            raise TimeoutError(
                                f"job {key!r} produced no result within "
                                f"{timeout}s"
                            )
                    continue
                except Exception as exc:
                    # Pool-level failure (a crashed worker raises
                    # BrokenProcessPool on every outstanding future): no
                    # task in this batch produced an outcome.  Mark the
                    # pool for recycling and put the tasks through the
                    # normal retry/record/raise accounting.
                    pool.mark_unhealthy()
                    for task in batch:
                        key = task.key
                        attempts[key] += 1
                        index += 1
                        if retry_policy.allows_retry(attempts[key]):
                            retry.append(task)
                            if obs is not None:
                                obs.task_retried()
                            logger.info(
                                "[%d/%d] %s failed (%s), retrying",
                                index, round_total, key, type(exc).__name__,
                            )
                            continue
                        if on_error == "raise":
                            raise
                        _record(
                            results, key,
                            _failure_for(key, exc, attempts[key]), on_result,
                        )
                        if obs is not None:
                            obs.task_failed()
                        logger.info(
                            "[%d/%d] %s: FAILED after %d attempt(s)",
                            index, round_total, key, attempts[key],
                        )
                    continue
                if obs is not None:
                    obs.worker_store_stats(built, attached, shm_retries)
                for task, outcome in zip(batch, outcomes):
                    key = task.key
                    attempts[key] += 1
                    index += 1
                    if isinstance(outcome, _BatchError):
                        if retry_policy.allows_retry(attempts[key]):
                            retry.append(task)
                            if obs is not None:
                                obs.task_retried()
                            logger.info(
                                "[%d/%d] %s failed (%s), retrying",
                                index, round_total, key, outcome.error_type,
                            )
                            continue
                        if on_error == "raise":
                            raise outcome.exception
                        _record(
                            results, key,
                            _failure_for(
                                key, outcome.exception, attempts[key],
                                tb=outcome.traceback,
                            ),
                            on_result,
                        )
                        if obs is not None:
                            obs.task_failed()
                        logger.info(
                            "[%d/%d] %s: FAILED after %d attempt(s)",
                            index, round_total, key, attempts[key],
                        )
                        continue
                    result, elapsed = outcome
                    _record(results, key, result, on_result)
                    if obs is not None:
                        obs.task_done(key, elapsed)
                    logger.info(
                        "[%d/%d] %s: done in %.2fs",
                        index, round_total, key, elapsed,
                    )
            pending = retry
        completed_normally = True
    finally:
        # A timed-out (or abandoned-at-interrupt) worker may never
        # return; don't block shutdown on it, and never hand a pool with
        # that history — or with futures abandoned by a raising harvest
        # — to the next run.
        if shared:
            if not (completed_normally and pool.healthy):
                discard_shared_pool(pool)
            # A healthy shared pool stays warm for the next run.
        elif timed_out or interrupted or not completed_normally:
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)
    return results


def run_tasks(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    workers: int = 1,
    on_error: str = "raise",
    retries: int = 1,
    timeout: Optional[float] = None,
    completed: Optional[Dict[JobKey, Any]] = None,
    on_result: Optional[Callable[[JobKey, Any], None]] = None,
    stop: Optional[StopToken] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    chunk: Optional[int] = None,
    setup: Optional[Callable[[], None]] = None,
    pool: Optional[WorkerPool] = None,
) -> Dict[JobKey, Any]:
    """Execute keyed tasks and return ``{task.key: result}`` in task order.

    The generic engine behind :func:`run_jobs` and the fault campaign.
    ``tasks`` is any sequence of picklable objects with a hashable,
    unique ``.key`` attribute; ``fn`` is a module-level (picklable)
    function mapping one task to its result.

    Args:
        tasks: the work items, in the order results should be keyed.
        fn: ``task -> result``; must be picklable for ``workers > 1``.
        workers: ``<= 1`` runs serially in-process (the reference
            behavior); more fans tasks out on a process pool.
        on_error: ``"raise"`` propagates the first task exception (after
            retries) — the legacy, fail-fast behavior; ``"record"``
            stores a :class:`JobFailure` under the task's key instead,
            so one poisoned task cannot take down the sweep and every
            other task's result is salvaged.
        retries: extra executions granted to a task that raised
            (default 1 — i.e. one retry).  Timeouts are never retried:
            the worker may still be running.
        timeout: per-task harvest timeout in seconds (pool mode only —
            a serial run cannot preempt the task).  An expired task is
            recorded as a timed-out :class:`JobFailure` under
            ``on_error="record"``.
        completed: results already known (a resumed journal) — those
            tasks are *not* re-executed; their values appear in the
            returned mapping at the usual positions, and ``on_result``
            is **not** fired for them (they are already journaled).
        on_result: ``(key, result)`` hook fired the moment each *fresh*
            result (or recorded :class:`JobFailure`) lands — the
            journal-append checkpoint.
        stop: cooperative stop token, polled between tasks (serial) or
            every ~0.25s during the harvest (pool).  When tripped, the
            runner stops submitting, gives in-flight futures a ~5s
            salvage grace, and raises
            :class:`~repro.durability.interrupt.RunInterrupted` whose
            ``completed`` carries every result so far (journaled +
            fresh + salvaged).
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            runner counters (tasks total / resumed / completed / failed /
            retried / timeout / salvaged) and the non-deterministic
            ``runner.task_seconds`` wall-clock histogram.
        tracer: optional :class:`repro.obs.Tracer` receiving one
            ``runner.job`` complete-event per finished task, keyed by
            wall seconds since the run started.
        chunk: tasks per submitted batch (pool mode).  Default adapts
            to the task count and worker count; a per-task ``timeout``
            forces 1 so the timeout budget stays per task.  Batching
            never changes results — the harvest stays in submission
            order.
        setup: optional picklable zero-argument callable run in the
            worker before each batch (e.g.
            :class:`repro.runtime.shm.TraceAttachSetup` announcing the
            shared-memory trace manifest).  A failing setup is logged
            in the worker and the batch proceeds.
        pool: optional explicit :class:`repro.runtime.pool.WorkerPool`.
            By default the process-wide warm pool is shared and reused
            across calls (``SECPB_EXEC_PLANE=0`` restores the legacy
            single-use pool per call).

    Returns:
        Results keyed and ordered by ``task.key``; under
        ``on_error="record"`` a value is either ``fn``'s result or a
        :class:`JobFailure`.

    Raises:
        RunInterrupted: the ``stop`` token tripped before all tasks
            finished; ``exc.completed`` holds the partial mapping.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"unknown on_error mode {on_error!r}")
    # The public knob stays an integer retry count; internally it is a
    # zero-backoff resilience policy so serial and pool paths share one
    # retry-budget accounting (`allows_retry`) instead of four inline
    # comparisons.  base_delay=0 never consults the clock, keeping the
    # retry round byte-identical to the pre-policy behavior.
    retry_policy = RetryPolicy(attempts=max(1, retries + 1), base_delay=0.0)
    tasks = list(tasks)
    _check_unique_keys(tasks)
    if not tasks:
        return {}
    done: Dict[JobKey, Any] = dict(completed) if completed else {}
    todo = [task for task in tasks if task.key not in done]
    obs = (
        _RunnerObs(metrics, tracer)
        if metrics is not None or tracer is not None
        else None
    )
    if obs is not None:
        obs.run_started(len(tasks), len(tasks) - len(todo))
    if done:
        logger.info(
            "resuming: %d/%d task(s) already journaled, %d to run",
            len(tasks) - len(todo), len(tasks), len(todo),
        )
    try:
        if not todo:
            fresh: Dict[JobKey, Any] = {}
        elif workers <= 1 or len(todo) <= 1:
            fresh = _run_tasks_serial(
                todo, fn, on_error, retry_policy, stop, on_result, obs
            )
        else:
            fresh = _run_tasks_pool(
                todo, fn, workers, on_error, retry_policy, timeout, stop,
                on_result, obs, chunk=chunk, setup=setup, pool=pool,
            )
    except RunInterrupted as exc:
        # Re-raise with the journaled prefix merged in, so the caller's
        # checkpoint sees the complete picture.
        merged = dict(done)
        merged.update(exc.completed)
        raise RunInterrupted(exc.reason, merged) from None
    done.update(fresh)
    return {task.key: done[task.key] for task in tasks}


def _publish_job_traces(
    jobs: Sequence[SimJob],
    completed: Optional[Dict[JobKey, Any]],
    metrics: Optional[MetricsRegistry],
) -> Optional[TraceAttachSetup]:
    """Publish each unique trace of ``jobs`` once; the workers' setup hook.

    The parent materializes every distinct ``(benchmark, num_ops,
    seed)`` through the default store (memoized, so repeated sweeps pay
    nothing) and publishes it to the shared-memory plane; the returned
    setup makes batch workers attach instead of rebuild.  A trace that
    fails to build here (e.g. an unknown benchmark in a poisoned job) is
    skipped so the *worker* raises the real error with full context and
    the record/retry semantics stay exactly as before.
    """
    registry = shared_registry()
    for job in jobs:
        if completed is not None and job.key in completed:
            continue
        trace_key = (job.benchmark, int(job.num_ops), int(job.seed))
        if trace_key in registry:
            continue
        try:
            trace = DEFAULT_STORE.get(*trace_key)
        except Exception:
            continue
        digest = DEFAULT_STORE.checksum(*trace_key)
        if digest is None:  # evicted from a bounded store; re-fingerprint
            from ..workloads.store import trace_digest

            digest = trace_digest(trace)
        registry.publish(trace_key, trace, digest)
    if metrics is not None:
        stats = registry.stats()
        metrics.gauge(
            "store.shm_segments",
            "Trace segments published to the shared-memory plane",
            deterministic=False,
        ).set(stats["segments"])
        metrics.gauge(
            "store.shm_bytes",
            "Resident bytes of published trace segments",
            deterministic=False,
        ).set(stats["bytes"])
    if not len(registry):
        return None
    return TraceAttachSetup(registry.manifest())


def run_jobs(
    jobs: Sequence[SimJob],
    workers: int = 1,
    on_error: str = "raise",
    retries: int = 1,
    timeout: Optional[float] = None,
    completed: Optional[Dict[JobKey, Any]] = None,
    on_result: Optional[Callable[[JobKey, Any], None]] = None,
    stop: Optional[StopToken] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    chunk: Optional[int] = None,
) -> Dict[JobKey, SimulationResult]:
    """Execute ``jobs`` and return ``{job.key: result}`` in job order.

    ``workers <= 1`` runs serially in-process (the default, and the
    reference behavior); ``workers > 1`` fans jobs out in batches on the
    process-wide warm pool, after publishing each distinct trace once
    into the shared-memory plane so workers attach zero-copy views
    instead of rebuilding (``SECPB_TRACE_SHM=0`` disables the segments,
    ``SECPB_EXEC_PLANE=0`` the whole plane).  All paths produce
    bit-identical result mappings — the simulations are deterministic
    and results are keyed, so completion order cannot leak into the
    output.

    Hardening knobs (``on_error``/``retries``/``timeout``) are forwarded
    to :func:`run_tasks`; with ``on_error="record"`` a failing job maps
    to a :class:`JobFailure` while every healthy job's result stays
    byte-identical to its serial run.  Resumption knobs
    (``completed``/``on_result``/``stop``) are forwarded too — see
    :func:`run_tasks`.

    A simulation this process has already run is not run again.  Results
    are memoized by job *content*, not by ``job.key``: benchmark,
    num_ops, seed, warmup_frac, simulator, scheme, bmf_cut,
    ``root_cache_bytes`` (only with a ``bmf_cut``), and the resolved
    ``SystemConfig`` (after ``secpb_entries``) and ``TimingCalibration``
    (``None`` is the default).  Before dispatch, a job whose content is
    memoized is answered without running; only the misses reach the
    pool, and only their traces are published.  ``on_result`` still
    fires for every answered key, so a journal covers the whole call,
    but such keys are neither counted as resumed nor logged as
    journaled; ``metrics`` counts them in ``runner.tasks_memoized``.  A
    :class:`JobFailure` is never memoized, and each caller gets its own
    copy of a result's ``stats``.  The memo lives as long as the process
    (like the trace store's ``DEFAULT_STORE``); :func:`clear_result_memo`
    empties it.  Nothing is kept on disk, so a fresh process pays the
    full cost again.
    """
    jobs = list(jobs)
    _check_unique_keys(jobs)
    journaled = completed or {}
    content_of: Dict[JobKey, _SimContent] = {}  # dispatched key -> memo key
    hits: List[Tuple[JobKey, SimulationResult]] = []
    dispatch: List[SimJob] = []
    for job in jobs:
        content = None if job.key in journaled else _content_or_none(job)
        cached = None if content is None else _RESULT_MEMO.get(content)
        if cached is not None:
            hits.append((job.key, _private_copy(cached)))
            continue
        if content is not None:
            content_of[job.key] = content
        dispatch.append(job)
    memoized = len(jobs) - len(dispatch)
    if metrics is not None:
        _RunnerObs(metrics, None).tasks_memoized(memoized)
    if memoized:
        logger.info(
            "%d/%d job(s) answered from the result memo", memoized, len(jobs)
        )

    def landed(key: JobKey, value: Any) -> None:
        content = content_of.get(key)
        if content is not None and not isinstance(value, JobFailure):
            _RESULT_MEMO[content] = _private_copy(value)
        if on_result is not None:
            on_result(key, value)

    setup: Optional[TraceAttachSetup] = None
    if (
        workers > 1
        and len(dispatch) > 1
        and plane_enabled()
        and shm_enabled()
    ):
        setup = _publish_job_traces(dispatch, completed, metrics)
    answered: Dict[JobKey, Any] = {}
    try:
        for key, value in hits:
            _record(answered, key, value, on_result)
        fresh = run_tasks(
            dispatch,
            execute_job,
            workers=workers,
            on_error=on_error,
            retries=retries,
            timeout=timeout,
            completed=completed,
            on_result=landed,
            stop=stop,
            metrics=metrics,
            tracer=tracer,
            chunk=chunk,
            setup=setup,
        )
    except RunInterrupted as exc:
        merged = dict(journaled)
        merged.update(answered)
        merged.update(exc.completed)
        raise RunInterrupted(exc.reason, merged) from None
    answered.update(fresh)
    return {job.key: answered[job.key] for job in jobs}


def _content_or_none(job: SimJob) -> Optional[_SimContent]:
    """``job``'s memo key, or None when its spec does not resolve.

    An unresolvable spec (say, a zero-entry SecPB) is dispatched as is,
    so the worker raises the real error under the caller's
    ``on_error`` and the failure is never memoized.
    """
    try:
        return _resolve(job)
    except (TypeError, ValueError):
        return None
