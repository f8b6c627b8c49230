"""Profiling harness for the simulator inner loop (``repro profile``).

Two complementary views of one simulation run, after the trace's cache
hierarchy front end (:func:`repro.sim.hierarchy.front_end`) and its load
schedule (:func:`repro.core.simulator.load_schedule`) are built and timed
on their own line: every run of a trace shares both, so the views below
cover what each further run costs.

* **Host-time profile** — a :mod:`cProfile` capture of the Python-level
  cost of the run, aggregated per simulator component (cache model,
  SecPB, controller, stats, ...) and per function.  This is the view
  that drives hot-path optimization work: it answers "where do the
  wall-clock microseconds per simulated op go?".
* **Counter calls** — how many calls the profiled run made into
  :mod:`repro.sim.stats`, and how many per op.  Store paths count their
  per-store events in closure locals and add them to the collector once
  per sync (:class:`~repro.core.simulator.StorePath`), so this number
  stays low; a per-event counter put back on the store path shows here.
* **Simulated-cycle breakdown** — the timing model's own accounting,
  read off the run's counters: acceptance-path cycles, backflow stall
  cycles, store-buffer stalls.  This answers "where do the simulated
  cycles go?" and is invariant under optimization (the byte-identity
  guarantee of tests/test_golden_output.py).

The module keeps zero non-stdlib dependencies: cProfile + pstats only.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.schemes import Scheme
from ..core.simulator import (
    SecurePersistencySimulator,
    load_schedule,
    load_verification_cycles,
)
from ..sim.config import SystemConfig
from ..sim.hierarchy import front_end
from ..sim.stats import SimulationResult, StatsCollector

_STATS_COMPONENT = "sim.stats (counters)"

# Map source-path fragments to the component names reported in the
# per-component rollup.  Order matters: first match wins.
_COMPONENT_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("repro/core/simulator", "core.simulator (inner loop)"),
    ("repro/core/controller", "core.controller (pricing)"),
    ("repro/core/secpb", "core.secpb (persist buffer)"),
    ("repro/sim/cache", "sim.cache (cache model)"),
    ("repro/sim/hierarchy", "sim.hierarchy (L1/L2/LLC)"),
    ("repro/sim/engine", "sim.engine (pipelines)"),
    ("repro/sim/stats", _STATS_COMPONENT),
    ("repro/security/metadata_cache", "security.metadata_cache (CTR$/MAC$/BMT$)"),
    ("repro/workloads", "workloads (trace)"),
    ("repro/", "repro (other)"),
)


def _component_of(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for fragment, component in _COMPONENT_PATTERNS:
        if fragment in normalized:
            return component
    return "python/stdlib"


@dataclass
class FunctionCost:
    """One function's share of the host-time profile."""

    location: str
    calls: int
    tottime: float
    cumtime: float


@dataclass
class ProfileReport:
    """Everything ``repro profile`` measured for one simulation."""

    benchmark: str
    scheme: str
    num_ops: int
    elapsed_seconds: float
    ops_per_second: float
    front_end_seconds: float
    schedule_seconds: float
    counter_calls: int
    component_seconds: Dict[str, float] = field(default_factory=dict)
    hottest: List[FunctionCost] = field(default_factory=list)
    cycle_breakdown: Dict[str, float] = field(default_factory=dict)
    result: Optional[SimulationResult] = None

    def render(self) -> str:
        calls_per_op = self.counter_calls / self.num_ops if self.num_ops else 0.0
        lines = [
            f"profile: {self.scheme} on {self.benchmark} "
            f"({self.num_ops} refs, {self.elapsed_seconds:.3f}s profiled, "
            f"{self.ops_per_second:,.0f} ops/s un-instrumented)",
            f"hierarchy front end: {self.front_end_seconds:.3f}s, load schedule: "
            f"{self.schedule_seconds:.3f}s, each built once per trace and shared "
            "by every run below",
            f"counter calls: {self.counter_calls:,} into repro/sim/stats.py "
            f"({calls_per_op:.2f} per op)",
            "",
            "host time per component (cProfile tottime):",
        ]
        total = sum(self.component_seconds.values()) or 1.0
        for component, seconds in sorted(
            self.component_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {component:<45} {seconds:8.3f}s  {100.0 * seconds / total:5.1f}%"
            )
        lines.append("")
        lines.append("hottest functions (tottime):")
        for cost in self.hottest:
            lines.append(
                f"  {cost.tottime:8.3f}s {cost.calls:>9} calls  {cost.location}"
            )
        lines.append("")
        lines.append("simulated-cycle breakdown (timing-model accounting):")
        for name, value in sorted(self.cycle_breakdown.items()):
            lines.append(f"  {name:<38} {value:16,.0f}")
        return "\n".join(lines)


def _cycle_breakdown(result: SimulationResult) -> Dict[str, float]:
    """The simulated run's own view of where cycles went."""
    stats = result.stats
    breakdown = {
        "total cycles": result.cycles,
        "instructions": float(result.instructions),
        "secpb acceptance cycles (new entry)": stats.get(
            "secpb.new_entry_cycles", 0.0
        ),
        "secpb acceptance cycles (coalesced)": stats.get(
            "secpb.coalesced_cycles", 0.0
        ),
        "backflow stall cycles": stats.get("secpb.backflow_cycles", 0.0),
        "drain services": stats.get("drain.services", 0.0),
        "secpb allocations": stats.get("secpb.allocations", 0.0),
        "secpb writes": stats.get("secpb.writes", 0.0),
    }
    return breakdown


def profile_simulation(
    benchmark: str = "gamess",
    scheme: Optional[Scheme] = None,
    num_ops: int = 40_000,
    seed: int = 1,
    top: int = 12,
    config: Optional[SystemConfig] = None,
    warmup_frac: float = 0.0,
) -> ProfileReport:
    """Profile one trace-driven simulation end to end.

    First builds the trace's hierarchy front end and load schedule, each
    timed on its own.  Then runs the simulation twice, both warm (front
    end, schedule and trace columns built), so each times only the loop
    and the store path: once un-instrumented with
    :func:`time.perf_counter` for an honest throughput figure (cProfile
    inflates per-call costs several-fold), then once under cProfile for
    the attribution.  Both runs produce byte-identical artifacts, so the
    returned :class:`~repro.sim.stats.SimulationResult` is from the
    profiled run without loss.
    """
    from ..workloads.spec import build_trace

    trace = build_trace(benchmark, num_ops, seed)
    simulator = SecurePersistencySimulator(config=config, scheme=scheme)
    config = simulator.config
    warmup_ops = int(len(trace) * warmup_frac)
    # Whether PM loads verify, as the run decides it: from its path's
    # metadata caches.
    mdc = simulator._store_path(StatsCollector()).mdc
    verify = load_verification_cycles(config, mdc) > 0

    start = time.perf_counter()
    front_end(trace, config, simulator.persist_region, warmup_ops)
    front_end_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    load_schedule(trace, config, simulator.calibration, warmup_ops, verify)
    schedule_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    simulator.run(trace, warmup_frac)
    plain_elapsed = time.perf_counter() - start

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = simulator.run(trace, warmup_frac)
    profiler.disable()
    profiled_elapsed = time.perf_counter() - start

    stats = pstats.Stats(profiler, stream=io.StringIO())
    component_seconds: Dict[str, float] = {}
    functions: List[FunctionCost] = []
    counter_calls = 0
    for (filename, lineno, name), (
        _primitive_calls,
        ncalls,
        tottime,
        cumtime,
        _callers,
    ) in stats.stats.items():
        component = _component_of(filename)
        component_seconds[component] = component_seconds.get(component, 0.0) + tottime
        short = filename.replace("\\", "/").rsplit("repro/", 1)[-1]
        if component == _STATS_COMPONENT:
            counter_calls += ncalls
        functions.append(
            FunctionCost(f"{short}:{lineno}({name})", ncalls, tottime, cumtime)
        )
    functions.sort(key=lambda f: -f.tottime)

    return ProfileReport(
        benchmark=benchmark,
        scheme=simulator.scheme_name,
        num_ops=num_ops,
        elapsed_seconds=profiled_elapsed,
        ops_per_second=num_ops / plain_elapsed if plain_elapsed else 0.0,
        front_end_seconds=front_end_elapsed,
        schedule_seconds=schedule_elapsed,
        counter_calls=counter_calls,
        component_seconds=component_seconds,
        hottest=functions[:top],
        cycle_breakdown=_cycle_breakdown(result),
        result=result,
    )
