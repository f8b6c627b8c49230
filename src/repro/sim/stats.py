"""Statistics collection for the SecPB simulator.

Every component in the simulated system (SecPB, caches, memory controller,
crypto engine) increments named counters on a shared :class:`StatsCollector`.
The collector also derives the two workload statistics the paper leans on:

* **PPTI** — SecPB persists per thousand instructions (Sec. VI-B), and
* **NWPE** — average number of writes per SecPB entry, i.e. the coalescing
  factor a block enjoys while resident in the buffer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, MutableMapping, Tuple


class StatsCollector:
    """A named-counter sink shared by all simulated components.

    Counters are created lazily on first increment; reading a counter that
    was never incremented returns zero, which keeps call sites free of
    existence checks.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] += amount

    def counter(self, name: str) -> Callable[[float], None]:
        """A bound fast-path incrementer for one counter.

        Hot components resolve their counter names once (at construction)
        and call the returned closure per event, skipping the per-call
        name hashing and attribute traffic of :meth:`add`.  The closure
        stays valid across :meth:`reset` (which clears the mapping in
        place) and is observationally identical to ``add(name, amount)``.
        """
        counters = self._counters

        def bump(amount: float = 1.0) -> None:
            counters[name] += amount

        return bump

    def sums(self) -> MutableMapping[str, float]:
        """The live mapping behind :meth:`add`, for per-event float sums.

        A hot loop adds to it inline: ``sums[name] += amount`` is
        ``add(name, amount)``, a missing name starting at zero, without
        the call.  The adds land in this collector, so the warmup
        snapshot and subtract see them as they see :meth:`add`'s.  A
        float sum must be added per event, in event order, when its
        order is pinned (the store path's acceptance and backflow cycles,
        which cores of the multi-core model share).
        """
        return self._counters

    def add_counts(self, counts: Iterable[Tuple[str, int]]) -> None:
        """Add integer counts kept outside the collector, skipping zeros.

        A store path counts its per-store events in locals and hands them
        over here through its ``sync`` hook.  A zero adds nothing, so a
        name appears exactly when per-event :meth:`add` calls would have
        created it, and integer sums are exact in any order.
        """
        counters = self._counters
        for name, count in counts:
            if count:
                counters[name] += count

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` with ``value``."""
        self._counters[name] = value

    def get(self, name: str) -> float:
        """Read counter ``name`` (zero if never touched)."""
        return self._counters.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Snapshot all counters as a plain dictionary."""
        return dict(self._counters)

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector's counters into this one."""
        for name, value in other._counters.items():
            self._counters[name] += value

    def snapshot(self) -> Dict[str, float]:
        """Freeze the current counter values (e.g. at a warmup boundary)."""
        return dict(self._counters)

    def subtract(self, snapshot: Mapping[str, float]) -> None:
        """Remove a previously :meth:`snapshot`-ted region's counts.

        Used to exclude a warmup region: snapshot at the boundary, then
        subtract after the run so every counter — and every statistic
        derived from one, like PPTI/NWPE — covers only the measured
        region.
        """
        for name, value in snapshot.items():
            self._counters[name] -= value

    def reset(self) -> None:
        """Zero every counter."""
        self._counters.clear()

    # Derived workload statistics -----------------------------------------

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counters[numerator] / counters[denominator]`` (0 if empty)."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    @property
    def ppti(self) -> float:
        """SecPB persists (entry allocations) per thousand instructions."""
        instructions = self.get("instructions")
        if instructions == 0:
            return 0.0
        return 1000.0 * self.get("secpb.allocations") / instructions

    @property
    def nwpe(self) -> float:
        """Average writes per SecPB entry residency (coalescing factor)."""
        return self.ratio("secpb.writes", "secpb.allocations")


@dataclass
class SimulationResult:
    """Outcome of one simulated run.

    Attributes:
        scheme: name of the persistency scheme simulated (e.g. ``"cobcm"``).
        benchmark: workload name (e.g. ``"gamess"``).
        cycles: total execution cycles.
        instructions: instructions retired.
        stats: raw counter snapshot.
    """

    scheme: str
    benchmark: str
    cycles: float
    instructions: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def slowdown_vs(self, baseline: "SimulationResult") -> float:
        """Execution-time ratio against a baseline run (1.0 = no overhead)."""
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        if self.instructions != baseline.instructions:
            raise ValueError(
                "slowdown comparison requires equal work: "
                f"{self.instructions} vs {baseline.instructions} instructions"
            )
        return self.cycles / baseline.cycles

    def overhead_pct_vs(self, baseline: "SimulationResult") -> float:
        """Percentage overhead against a baseline run (0.0 = no overhead)."""
        return (self.slowdown_vs(baseline) - 1.0) * 100.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (paper-style slowdown averaging).

    Computed in log space as ``exp(mean(log(v)))`` with a compensated sum
    (:func:`math.fsum`): a naive running product over/underflows to
    ``inf``/``0`` on long vectors of large/small slowdowns long before the
    true mean leaves double range.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean (used for averaging percentage overheads)."""
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def summarize_slowdowns(
    results: Mapping[str, SimulationResult],
    baselines: Mapping[str, SimulationResult],
) -> Dict[str, float]:
    """Per-benchmark slowdown of ``results`` against matching ``baselines``.

    Args:
        results: benchmark name -> secure-scheme run.
        baselines: benchmark name -> baseline (BBB) run.

    Returns:
        benchmark name -> slowdown ratio.
    """
    missing = set(results) - set(baselines)
    if missing:
        raise KeyError(f"no baseline for benchmarks: {sorted(missing)}")
    return {
        name: result.slowdown_vs(baselines[name]) for name, result in results.items()
    }
