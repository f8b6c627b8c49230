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
  its segment is missing or fails verification;
* jobs are dispatched in **batches** over a process-wide *warm*
  :class:`~repro.runtime.pool.WorkerPool` (:mod:`repro.runtime.pool`)
  that survives across ``run_tasks`` calls, amortizing both pool
  construction and per-future pickle/IPC.  That pool and the shm trace
  plane are the only parallel path;
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
any one future.  One outcome rule settles every execution for both
executors: serial runs retry a task in place, pool runs in a later
round, and ``on_error="raise"`` records nothing for the task it raises on.

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
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..baselines.strict import StrictPersistencySimulator
from ..core.controller import TimingCalibration
from ..core.schemes import SCHEMES
from ..core.simulator import SecurePersistencySimulator
from ..durability.interrupt import RunInterrupted, StopToken
from ..envfault import procfault as _procfault
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import LANE_STORES, Tracer
from ..runtime.pool import WorkerPool, discard_shared_pool, get_shared_pool
from ..runtime.shm import TraceAttachSetup, shared_registry
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


def _check_unique_keys(tasks: Sequence[Any]) -> None:
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        seen: Set[JobKey] = set()
        dupes: Set[JobKey] = set()
        for key in keys:
            (dupes if key in seen else seen).add(key)
        raise ValueError(f"duplicate job keys: {sorted(map(str, dupes))}")


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

    Built on every :func:`run_tasks` call; without a ``metrics``
    registry or a ``tracer`` its methods do nothing.  The outcome rule
    (:meth:`_Harvest.settle`) calls its methods per task outcome.
    Wall-clock quantities (task seconds, job trace timestamps) are
    inherently non-deterministic across worker counts, so the histogram
    is registered ``deterministic=False`` and excluded from reproducible
    metric snapshots; the event *counters* (completed/failed/retried/...)
    are deterministic and do compare across ``--jobs`` values.
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

    def worker_store_stats(self, built: int, attached: int) -> None:
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


@dataclass(frozen=True)
class _TaskError:
    """One task execution that produced no result.

    ``exception`` is what the task, or the pool running it, raised;
    ``traceback`` is formatted where its frames still existed, so a
    :class:`JobFailure` shows the task's stack, not the runner's
    plumbing.  ``None`` marks an expired harvest wait (:data:`_TIMED_OUT`).
    """

    exception: Optional[BaseException]
    traceback: str = ""


_TIMED_OUT = _TaskError(None)

_Outcome = Union[Tuple[Any, float], _TaskError]
"""One execution's outcome: ``(result, seconds)`` or a :class:`_TaskError`."""


def _execute(fn: Callable[[Any], Any], task: Any) -> _Outcome:
    """Run one task here: ``(result, seconds)``, or the error it raised.

    Serial runs call it directly; pool workers once per task of a batch.
    """
    start = time.perf_counter()
    try:
        result = fn(task)
    except Exception as exc:
        return _TaskError(exc, traceback.format_exc())
    return result, time.perf_counter() - start


@dataclass
class _Harvest:
    """One run's results and the outcome rule that settles them.

    Serial and pool executors hand every execution's outcome to
    :meth:`settle`; they differ only in when a retry runs.
    """

    total: int
    on_error: str
    retries: int
    timeout: Optional[float]
    on_result: Optional[Callable[[JobKey, Any], None]]
    obs: _RunnerObs
    results: Dict[JobKey, Any]
    attempts: Dict[JobKey, int] = field(default_factory=dict)
    settled: int = 0

    def settle(self, task: Any, outcome: _Outcome) -> bool:
        """Account one execution of ``task``; True when it must run again.

        A task exception (the task's own, or the pool's for each task of
        its batch) runs the task again while it has failed no more than
        :attr:`retries` times; an expired wait never does, as the worker
        may still be running.  A final failure raises under
        ``on_error="raise"`` before anything is recorded; under
        ``"record"`` it lands as a :class:`JobFailure`.
        Progress reads ``[execution/executions known]``; a retry adds one.
        """
        key = task.key
        attempts = self.attempts[key] = self.attempts.get(key, 0) + 1
        self.settled += 1
        if not isinstance(outcome, _TaskError):
            result, elapsed = outcome
            _record(self.results, key, result, self.on_result)
            self.obs.task_done(key, elapsed)
            self._progress(key, ": done in %.2fs", elapsed)
            return False
        exc = outcome.exception
        if exc is not None and attempts <= self.retries:
            self.total += 1
            self.obs.task_retried()
            self._progress(key, " failed (%s), retrying", type(exc).__name__)
            return True
        if self.on_error == "raise":
            if exc is None:
                exc = TimeoutError(
                    f"job {key!r} produced no result within {self.timeout}s"
                )
            raise exc
        if exc is None:
            failure = JobFailure(
                key=key,
                error_type="TimeoutError",
                message=f"no result within {self.timeout}s; worker abandoned",
                traceback="",
                attempts=attempts,
                timed_out=True,
            )
            _record(self.results, key, failure, self.on_result)
            self.obs.task_timeout()
            self._progress(key, ": TIMED OUT after %.1fs", self.timeout)
        else:
            failure = JobFailure(
                key=key,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=outcome.traceback,
                attempts=attempts,
            )
            _record(self.results, key, failure, self.on_result)
            self.obs.task_failed()
            self._progress(key, ": FAILED after %d attempt(s)", attempts)
        return False

    def _progress(self, key: JobKey, event: str, *args: Any) -> None:
        logger.info("[%d/%d] %s" + event, self.settled, self.total, key, *args)

    def salvage(self, remaining: Sequence[Tuple[Sequence[Any], Any]]) -> None:
        """At interrupt: cancel what never started, keep what finished anyway.

        In-flight batch futures get a shared :data:`_SALVAGE_GRACE`
        budget to deliver — work a worker already paid for should reach
        the journal, not be thrown away.  Every completed outcome of a
        delivered batch is salvaged; anything still running after the
        grace is abandoned (it re-runs on ``--resume``).
        """
        # Cancel everything still queued in ONE pass before waiting on
        # anything — otherwise freed workers keep picking up queued
        # futures while we salvage, and "stop submitting" never stops.
        in_flight = [
            (batch, future) for batch, future in remaining if not future.cancel()
        ]
        deadline = time.monotonic() + _SALVAGE_GRACE
        for batch, future in in_flight:
            grace = max(0.0, deadline - time.monotonic())
            try:
                outcomes, _built, _attached = future.result(timeout=grace)
            except Exception:  # still running, or failed in flight:
                continue  # either way the resume redoes it
            for task, outcome in zip(batch, outcomes):
                if isinstance(outcome, _TaskError):
                    continue  # failed in flight; the resume will retry it
                result, _elapsed = outcome
                _record(self.results, task.key, result, self.on_result)
                self.obs.task_salvaged()
                logger.info("%s: salvaged at interrupt", task.key)


def _run_serial(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    harvest: _Harvest,
    stop: Optional[StopToken],
) -> None:
    """Run ``tasks`` in-process, retrying each before starting the next."""
    for task in tasks:
        if stop is not None and stop.check():
            raise RunInterrupted(stop.reason, harvest.results)
        while harvest.settle(task, _execute(fn, task)):
            pass


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


def _run_batch(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    setup: Optional[Callable[[], None]],
) -> Tuple[List[_Outcome], int, int]:
    """Worker-side: run one batch of tasks sequentially, one IPC round-trip.

    ``setup`` (when present) re-announces the owner's shared-memory
    manifest before the first task, so a warm pool's workers see traces
    published after they were forked; a setup failure only disables the
    zero-copy path (tasks fall back to local regeneration).  Returns the
    per-task :func:`_execute` outcomes in task order plus the batch's
    trace-store deltas ``(built, attach_hits)`` for the runner's
    observability counters.

    Each task boundary is a ``worker.task`` injection site of the fault
    plane (:mod:`repro.envfault`): a due ``worker_sigkill`` takes the
    whole process down mid-batch, exactly like the OOM killer, and the
    parent must absorb the resulting :class:`BrokenProcessPool`.
    """
    if setup is not None:
        try:
            setup()
        except Exception:
            logger.exception("batch setup failed; traces rebuilt locally")
    built_before, attached_before = store_counters()
    outcomes: List[_Outcome] = []
    for task in tasks:
        _procfault.maybe_kill_worker("worker.task")
        outcomes.append(_execute(fn, task))
    built_after, attached_after = store_counters()
    return (
        outcomes,
        built_after - built_before,
        attached_after - attached_before,
    )


def _batch_size(total: int, workers: int, timeout: Optional[float]) -> int:
    """Tasks per submitted batch.

    A per-task ``timeout`` forces 1: the harvest deadline is per
    *future*, so batching would make tasks share one budget and break
    the wedged-worker semantics.  Otherwise the size adapts to roughly
    four batches per worker (capped at 32) — small enough that
    stragglers still balance across the pool, large enough to amortize
    pickle/IPC per future.
    """
    if timeout is not None:
        return 1
    return max(1, min(32, -(-total // (workers * 4))))


def _run_pool(
    tasks: Sequence[Any],
    fn: Callable[[Any], Any],
    workers: int,
    harvest: _Harvest,
    stop: Optional[StopToken],
    setup: Optional[Callable[[], None]],
) -> None:
    """Run ``tasks`` in batches on the warm pool; retries run in rounds."""
    completed_normally = False
    # Called through the module global, so a wrapper installed on
    # ``runner.get_shared_pool`` sees every acquisition.
    pool = get_shared_pool(workers)
    batch_size = _batch_size(len(tasks), workers, harvest.timeout)
    harvest.obs.pool_acquired(pool)
    try:
        pending = list(tasks)
        while pending:
            if not pool.healthy:
                # A crashed worker broke the previous round's pool; the
                # retry round gets a fresh generation so one casualty
                # cannot poison every subsequent attempt.
                discard_shared_pool(pool)
                pool = get_shared_pool(workers)
                harvest.obs.pool_acquired(pool)
            batches = [
                pending[start:start + batch_size]
                for start in range(0, len(pending), batch_size)
            ]
            futures = [
                (batch, pool.submit(_run_batch, fn, batch, setup))
                for batch in batches
            ]
            harvest.obs.batches_submitted(len(futures))
            retry: List[Any] = []
            for batch_index, (batch, future) in enumerate(futures):
                try:
                    # The harvest is a `runner.harvest` injection site:
                    # a due `broken_pool` storm raises here, inside the
                    # try, so it flows through the same
                    # mark-unhealthy/retry path a real one would.
                    _procfault.maybe_break_pool("runner.harvest")
                    # Harvest in submission order; the per-task timeout
                    # is measured from when the harvest starts waiting on
                    # the future (batch size is 1 whenever a timeout is
                    # set), so a task never gets *less* than `timeout`
                    # seconds of wall clock.
                    outcomes, built, attached = _wait_result(
                        future, harvest.timeout, stop
                    )
                except _StopRequested:
                    harvest.salvage(futures[batch_index:])
                    assert stop is not None
                    raise RunInterrupted(stop.reason, harvest.results)
                except FutureTimeoutError:
                    # The worker may be wedged; settle and move on — the
                    # remaining futures are still harvested (salvage),
                    # but the pool is never reused after this run.
                    pool.mark_unhealthy()
                    outcomes = [_TIMED_OUT] * len(batch)
                except Exception as exc:
                    # Pool-level failure (a crashed worker raises
                    # BrokenProcessPool on every outstanding future): no
                    # task in this batch produced an outcome, so each
                    # settles as the pool's exception.  Mark the pool
                    # for recycling.
                    pool.mark_unhealthy()
                    error = _TaskError(exc, traceback.format_exc())
                    outcomes = [error] * len(batch)
                else:
                    harvest.obs.worker_store_stats(built, attached)
                for task, outcome in zip(batch, outcomes):
                    if harvest.settle(task, outcome):
                        retry.append(task)
            pending = retry
        completed_normally = True
    finally:
        # A timed-out (or abandoned-at-interrupt) worker may never
        # return; don't block shutdown on it, and never hand a pool with
        # that history — or with futures abandoned by a raising harvest
        # — to the next run.  A healthy pool stays warm for the next run.
        if not (completed_normally and pool.healthy):
            discard_shared_pool(pool)


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
    setup: Optional[Callable[[], None]] = None,
) -> Dict[JobKey, Any]:
    """Execute keyed tasks and return ``{task.key: result}`` in task order.

    The generic engine behind :func:`run_jobs` and the fault campaign.
    ``tasks`` is any sequence of picklable objects with a hashable,
    unique ``.key`` attribute; ``fn`` is a module-level (picklable)
    function mapping one task to its result.

    Every execution settles through one outcome rule whatever
    ``workers`` is, so results, :class:`JobFailure` records, retry
    counts and metrics do not depend on the worker count.  Only the
    retry timing differs: a serial run retries a failed task in place
    before starting the next one, while a pool run retries failed tasks
    together in a fresh round after the harvest — ``on_result`` fires
    in that order.

    Args:
        tasks: the work items, in the order results should be keyed.
        fn: ``task -> result``; must be picklable for ``workers > 1``.
        workers: ``<= 1`` runs serially in-process (the reference
            behavior); more fans tasks out in batches on the
            process-wide warm pool (:mod:`repro.runtime.pool`), reused
            across calls.  The batch size adapts to the task and worker
            counts, and a per-task ``timeout`` forces 1 so the timeout
            budget stays per task.  Batching never changes results —
            the harvest stays in submission order.
        on_error: ``"raise"`` (legacy, fail-fast) propagates the first
            final failure, after retries: the task's exception, or
            ``TimeoutError`` for an expired wait.  Nothing is recorded
            for that task, so ``on_result`` never sees it.  ``"record"``
            stores a :class:`JobFailure` under the task's key instead,
            so one poisoned task cannot take down the sweep and every
            other task's result is salvaged.
        retries: extra executions granted to a task that raised
            (default 1 — i.e. one retry).  Timeouts are never retried:
            the worker may still be running.
        timeout: per-task harvest timeout in seconds (pool mode only —
            a serial run cannot preempt the task).  An expired task is
            recorded as a timed-out :class:`JobFailure` under
            ``on_error="record"`` and raises ``TimeoutError`` under
            ``"raise"``.
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
        setup: optional picklable zero-argument callable run in the
            worker before each batch (e.g.
            :class:`repro.runtime.shm.TraceAttachSetup` announcing the
            shared-memory trace manifest).  A failing setup is logged
            in the worker and the batch proceeds.

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
    tasks = list(tasks)
    _check_unique_keys(tasks)
    if not tasks:
        return {}
    # Journaled results seed the mapping, so a RunInterrupted raised
    # mid-run carries them and the caller's checkpoint sees it all.
    done: Dict[JobKey, Any] = dict(completed) if completed else {}
    todo = [task for task in tasks if task.key not in done]
    obs = _RunnerObs(metrics, tracer)
    obs.run_started(len(tasks), len(tasks) - len(todo))
    if done:
        logger.info(
            "resuming: %d/%d task(s) already journaled, %d to run",
            len(tasks) - len(todo), len(tasks), len(todo),
        )
    harvest = _Harvest(
        total=len(todo),
        on_error=on_error,
        retries=retries,
        timeout=timeout,
        on_result=on_result,
        obs=obs,
        results=done,
    )
    if workers <= 1 or len(todo) <= 1:
        _run_serial(todo, fn, harvest, stop)
    else:
        _run_pool(todo, fn, workers, harvest, stop, setup)
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
        # The default store is unbounded and records a digest per get.
        digest = DEFAULT_STORE.checksum(*trace_key)
        assert digest is not None
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
) -> Dict[JobKey, SimulationResult]:
    """Execute ``jobs`` and return ``{job.key: result}`` in job order.

    ``workers <= 1`` runs serially in-process (the default, and the
    reference behavior); ``workers > 1`` fans jobs out in batches on the
    process-wide warm pool, after publishing each distinct trace once
    into the shared-memory plane so workers attach zero-copy views
    instead of rebuilding.  Both produce bit-identical result mappings —
    the simulations are deterministic and results are keyed, so
    completion order cannot leak into the output.

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
    if workers > 1 and len(dispatch) > 1:
        setup = _publish_job_traces(dispatch, completed, metrics)
    answered: Dict[JobKey, Any] = dict(journaled)
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
            setup=setup,
        )
    except RunInterrupted as exc:
        answered.update(exc.completed)
        raise RunInterrupted(exc.reason, answered) from None
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
