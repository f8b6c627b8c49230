"""Per-layer timing from outside the program: stack-accounted spans.

A :class:`Spans` recorder times calls into each layer's public functions.
:func:`instrument` installs its wrappers on the program's classes and
module attributes before any simulator is built, so the hot-loop
bindings the simulators resolve at construction pick the wrappers up.
Nothing under ``src/`` changes.

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to its parent's child time, and its *self* time
(duration minus child time) to its layer.  So the self times of all
layers partition the wall time spent inside wrapped calls, and a layer
never double-counts a nested call of another layer.

Coarse boundaries (experiments, runner calls, trace builds, simulator
runs) are *emitted*: each call becomes one Chrome trace event with an
``id`` and its parent's ``id`` in ``args``.  Hot boundaries (cache
accesses, stats bumps, pricing calls) run millions of times, so they
only accumulate totals; an emitted span lists the self time its hot
descendants spent under ``args["inner_s"]``.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Hot layers: accumulated, never emitted as individual events.
HOT_LAYERS = (
    "sim.hierarchy",
    "sim.cache",
    "core.secpb",
    "core.controller",
    "security.metadata_cache",
    "sim.engine",
    "sim.stats",
)

#: Layers whose wrapped entry point is a simulator's ``run``.
SIMULATOR_LAYERS = ("core.simulator", "baselines.strict", "persistency.flush")

#: Slack for comparing sums of perf_counter differences.
_EPSILON_S = 1e-6


class Spans:
    """Stack-accounted self time per layer, plus emitted span events."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: layer -> [self seconds, total seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        #: Frames: [child seconds, id of the nearest emitted ancestor].
        self._stack: List[List[float]] = [[0.0, 0]]
        self._next_id = 1
        #: Emitted spans: (layer, start, duration, id, parent id,
        #: child seconds, args).
        self.events: List[tuple] = []

    def _acc(self, layer: str) -> List[float]:
        return self.totals.setdefault(layer, [0.0, 0.0, 0])

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as a hot (accumulated, not emitted) boundary."""
        acc = self._acc(layer)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                acc[0] += elapsed - frame[0]
                acc[1] += elapsed
                acc[2] += 1

        return wrapper

    def emitted(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped as an emitted boundary (one event per call)."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(layer):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, layer: str, args: Optional[Dict[str, Any]] = None) -> Iterator[None]:
        """Time the enclosed block as one emitted span of ``layer``."""
        acc = self._acc(layer)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        frame = [0.0, span_id]
        self._stack.append(frame)
        hot_before = [self._acc(name)[0] for name in HOT_LAYERS]
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            parent[0] += elapsed
            acc[0] += elapsed - frame[0]
            acc[1] += elapsed
            acc[2] += 1
            event_args = dict(args or {})
            inner = {
                name: self.totals[name][0] - before
                for name, before in zip(HOT_LAYERS, hot_before)
                if self.totals[name][0] > before
            }
            if inner:
                event_args["inner_s"] = inner
            self.events.append(
                (layer, start - self.origin, elapsed, span_id, parent[1],
                 frame[0], event_args)
            )

    def self_s(self, layer: str) -> float:
        return self.totals.get(layer, [0.0, 0.0, 0])[0]

    def total_s(self, layer: str) -> float:
        return self.totals.get(layer, [0.0, 0.0, 0])[1]

    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, [0.0, 0.0, 0])[2])

    def violations(self) -> List[str]:
        """Accounting errors: children longer than their parent, and so on.

        Each emitted span's children must fit inside it, and the self
        times of all layers must sum to no more than the top-level spans.
        """
        problems = []
        if len(self._stack) != 1:
            problems.append(f"{len(self._stack) - 1} span(s) never closed")
        for layer, _start, duration, span_id, _parent, child_s, _args in self.events:
            if child_s > duration + _EPSILON_S:
                problems.append(
                    f"span {span_id} ({layer}): children {child_s:.6f}s "
                    f"> span {duration:.6f}s"
                )
        top = sum(event[2] for event in self.events if event[4] == 0)
        layered = sum(acc[0] for acc in self.totals.values())
        if layered > top + _EPSILON_S:
            problems.append(
                f"layer self times sum to {layered:.6f}s > top-level spans {top:.6f}s"
            )
        return problems

    def to_tracer(self, tracer: Any, tid: int) -> None:
        """Emit every recorded span into a :class:`repro.obs.Tracer`."""
        for layer, start, duration, span_id, parent, _child, args in self.events:
            tracer.complete(
                layer, layer.split(".")[0], tid, start, duration,
                dict(args, id=span_id, parent=parent),
            )


def instrument(spans: Spans, simulate_here: bool) -> None:
    """Install the layer wrappers on the program (before building anything).

    ``simulate_here`` is False when simulations run in forked pool
    workers: wrappers there could not report back, so the simulation
    components are left unwrapped and read zero.
    """
    from repro.analysis import runner
    from repro.baselines.strict import StrictPersistencySimulator
    from repro.core.controller import SecPBController
    from repro.core.secpb import SecPB
    from repro.core.simulator import SecurePersistencySimulator
    from repro.persistency.flush import FlushBasedSimulator
    from repro.runtime.shm import SharedTraceRegistry
    from repro.security.metadata_cache import MetadataCaches
    from repro.sim.cache import Cache
    from repro.sim.engine import BoundedPipeline, BusyResource
    from repro.sim.hierarchy import MemoryHierarchy
    from repro.sim.stats import StatsCollector
    from repro.workloads import store

    def wrap(owner: Any, names: Sequence[str], layer: str, emit: bool = False) -> None:
        for name in names:
            original = getattr(owner, name)
            setattr(owner, name, (spans.emitted if emit else spans.timed)(layer, original))

    wrap(store, ["build_trace"], "workloads.build", emit=True)
    wrap(SharedTraceRegistry, ["publish"], "runtime.shm.publish", emit=True)
    wrap(runner, ["get_shared_pool"], "runtime.pool.acquire", emit=True)
    if not simulate_here:
        return
    wrap(SecurePersistencySimulator, ["run"], "core.simulator", emit=True)
    wrap(StrictPersistencySimulator, ["run"], "baselines.strict", emit=True)
    wrap(FlushBasedSimulator, ["run"], "persistency.flush", emit=True)
    wrap(MemoryHierarchy, ["load_latency", "store_access"], "sim.hierarchy")
    wrap(Cache, ["access"], "sim.cache")
    wrap(SecPB, ["coalesce", "allocate", "drain_oldest_addr", "drain_targets"], "core.secpb")
    wrap(
        SecPBController,
        ["price_new_entry", "price_coalesced_store", "price_drain"],
        "core.controller",
    )
    wrap(
        MetadataCaches,
        ["access_counter", "access_mac", "access_bmt_node"],
        "security.metadata_cache",
    )
    wrap(BoundedPipeline, ["push"], "sim.engine")
    wrap(BusyResource, ["request"], "sim.engine")
    wrap(StatsCollector, ["add", "set", "snapshot", "subtract", "as_dict"], "sim.stats")
    # Components bind their counters once, as closures; time the closures.
    make_counter = StatsCollector.counter
    StatsCollector.counter = lambda self, name: spans.timed(
        "sim.stats", make_counter(self, name)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_ratios(results: Sequence[Any]) -> Dict[str, float]:
    """Simulated-model ratios, summed over every result given.

    SecPB ratios cover the runs of the SecPB simulator (BBB included),
    which are the ones that count ``secpb.writes``.
    """
    def total(key: str, runs: Sequence[Any]) -> float:
        return sum(run.stats.get(key, 0.0) for run in runs)

    secpb_runs = [run for run in results if "secpb.writes" in run.stats]
    l1 = total("cache.L1D.hits", results) + total("cache.L1D.misses", results)
    llc = total("cache.L3.hits", results) + total("cache.L3.misses", results)
    writes = total("secpb.writes", secpb_runs)
    allocations = total("secpb.allocations", secpb_runs)
    return {
        "sim.cache.l1d_miss_ratio": _ratio(total("cache.L1D.misses", results), l1),
        "sim.cache.llc_miss_ratio": _ratio(total("cache.L3.misses", results), llc),
        "core.secpb.coalesce_ratio": _ratio(writes - allocations, writes),
        "core.secpb.backflow_cycle_frac": _ratio(
            total("secpb.backflow_cycles", secpb_runs),
            sum(run.cycles for run in secpb_runs),
        ),
        "security.bmt.root_updates_per_store": _ratio(
            total("bmt.root_updates", secpb_runs), writes
        ),
        "model.ppti": 1000.0 * _ratio(allocations, total("instructions", secpb_runs)),
        "model.nwpe": _ratio(writes, allocations),
    }


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def layer_metrics(
    spans: Spans,
    results: Sequence[Any],
    workers: int = 1,
    jobs_submitted: int = 0,
    jobs_distinct: int = 0,
    task_seconds: Sequence[float] = (),
    runner_counters: Optional[Dict[str, float]] = None,
    shm_stats: Optional[Dict[str, int]] = None,
    bytes_written: int = 0,
) -> Dict[str, float]:
    """Every per-layer metric the traced unit reports (see README.md)."""
    counters = runner_counters or {}
    shm = shm_stats or {}
    runner_wall = spans.total_s("analysis.runner")
    task_s = sum(task_seconds)
    metrics: Dict[str, float] = {
        "workloads.build_s": spans.total_s("workloads.build"),
        "workloads.traces_built": spans.calls("workloads.build"),
        "runtime.shm.publish_s": spans.total_s("runtime.shm.publish"),
        "runtime.shm.segments": shm.get("segments", 0),
        "runtime.shm.bytes": shm.get("bytes", 0),
        "runtime.shm.worker_attaches": counters.get("runner.worker_trace_attaches", 0.0),
        "runtime.shm.worker_builds": counters.get("runner.worker_traces_built", 0.0),
        "runtime.pool.acquire_s": spans.total_s("runtime.pool.acquire"),
        "runtime.pool.batches": counters.get("runner.batches_submitted", 0.0),
        "runtime.pool.busy_frac": (
            _ratio(task_s, workers * runner_wall) if workers > 1 else 0.0
        ),
        "analysis.runner.wall_s": runner_wall,
        "analysis.runner.task_s": task_s,
        "analysis.runner.overhead_s": (
            runner_wall - task_s / workers if runner_wall else 0.0
        ),
        "analysis.runner.task_s_p50": _percentile(task_seconds, 0.50),
        "analysis.runner.task_s_p95": _percentile(task_seconds, 0.95),
        "analysis.runner.jobs_submitted": jobs_submitted,
        "analysis.runner.jobs_distinct": jobs_distinct,
        "analysis.runner.useful_ratio": (
            _ratio(jobs_distinct, jobs_submitted) if jobs_submitted else 1.0
        ),
        "analysis.runner.retried": counters.get("runner.tasks_retried", 0.0),
        "analysis.runner.failed": counters.get("runner.tasks_failed", 0.0),
        "analysis.experiments.reduce_s": spans.self_s("analysis.experiments"),
        "analysis.report.render_s": spans.total_s("analysis.report.render"),
        "durability.write_s": spans.total_s("durability.write"),
        "durability.bytes": bytes_written,
        "energy.estimate_s": spans.total_s("energy.estimate"),
    }
    for layer in SIMULATOR_LAYERS + HOT_LAYERS:
        metrics[f"{layer}.self_s"] = spans.self_s(layer)
        metrics[f"{layer}.calls"] = spans.calls(layer)
    metrics.update(model_ratios(results))
    return metrics
