"""Multi-core SecPB timing: private buffers, shared MC, migration costs.

The paper's timing evaluation is single-core (Table I); Sec. IV-C only
*describes* the multi-core protocol — per-core SecPBs, a directory in the
metadata caches, entry migration on remote writes, flush-on-remote-read —
and argues that migration is cheap for eager schemes because the
value-independent metadata travels with the entry.  This module times
that protocol from the single-core parts and keeps only what is
multi-core:

* each core reads its trace's :func:`~repro.sim.hierarchy.front_end` and
  stores through its own SecPB :class:`~repro.core.simulator.StorePath`
  (a private SecPB, store buffer and drain engine);
* the metadata caches and the BMT and MAC engines live at the MC and are
  shared, so cores contend on them — the multi-core scaling cost of
  eager schemes;
* ownership is SecPB residency, asked of
  :class:`~repro.core.coherence.SecPBDirectory`, which audits every run;
* a store to a block resident in a *remote* SecPB first migrates the
  entry: a fixed transit cost plus, for schemes with eager value-dependent
  steps, the ciphertext/MAC regeneration at the new owner (Sec. IV-C-c);
* a load hitting a remote SecPB flushes the owner's entry (one drain
  service) and forwards the data.

Cores advance in lockstep over an interleaved schedule, which is
deterministic and close enough to a faithful multi-clock interleaving for
throughput questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BusyResource
from ..sim.hierarchy import front_end
from ..sim.stats import StatsCollector
from ..workloads.trace import Trace
from .coherence import SecPBDirectory
from .controller import TimingCalibration
from .schemes import Scheme
from .simulator import SecurePersistencySimulator, load_verification_cycles


@dataclass
class MultiCoreResult:
    """Outcome of a multi-core run.

    ``cycles`` is the slowest core's finish time (makespan);
    ``per_core_cycles`` the individual finish times.
    """

    scheme: str
    cores: int
    cycles: float
    instructions: int
    per_core_cycles: List[float]
    stats: Dict[str, float]

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class MultiCoreSecPBSimulator:
    """N cores with private SecPBs over a shared memory controller.

    Args:
        cores: number of cores (one trace per core).
        scheme: SecPB scheme (None = insecure BBB buffers).
        config: per-core configuration (SecPB geometry etc.).
        calibration: shared timing constants.
    """

    def __init__(
        self,
        cores: int,
        scheme: Optional[Scheme] = None,
        config: Optional[SystemConfig] = None,
        calibration: Optional[TimingCalibration] = None,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        self.cores = cores
        self.scheme = scheme
        self.config = config if config is not None else SystemConfig()
        self.calibration = (
            calibration if calibration is not None else TimingCalibration()
        )

    def run(self, traces: Sequence[Trace], warmup_frac: float = 0.0) -> MultiCoreResult:
        """Run one trace per core; returns the makespan and stats.

        Args:
            traces: one memory-reference trace per core.
            warmup_frac: fraction of the lockstep rounds treated as
                warmup, as in the single-core simulator: state (caches,
                SecPBs, ownership) is built during warmup, but its cycles,
                instructions and counters are excluded from the result.
                The boundary falls at the same round on every core, so
                per-core cycles and every cross-core aggregate (makespan,
                IPC, shared-engine counters) are measured-region only.
        """
        if len(traces) != self.cores:
            raise ValueError(f"expected {self.cores} traces, got {len(traces)}")
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        config, cal = self.config, self.calibration
        stats = StatsCollector()
        mdc = MetadataCaches(config, stats) if self.scheme is not None else None
        engines = (BusyResource("shared-bmt"), BusyResource("shared-mac"))
        model = SecurePersistencySimulator(config, self.scheme, cal)
        paths = [model._store_path(stats, mdc, *engines) for _ in traces]
        syncs = [path.sync for path in paths]
        secpbs = [path.secpb for path in paths]
        directory = SecPBDirectory(secpbs, secpbs[0].scheme, stats)
        owner_of = directory.owner_of
        migration_transit = config.l2.access_cycles  # SecPB-to-SecPB hop
        eager_value_dependent = bool(self.scheme and self.scheme.eager_value_dependent)
        l1_hit_cycles = config.l1.access_cycles
        blocking = cal.load_blocking_fraction
        memory_fill_cycles = config.memory_round_trip_cycles
        verify_load_cycles = load_verification_cycles(config, mdc)
        count_load_verification = stats.counter("verify.load_verifications")
        ops = [list(trace.iter_ops()) for trace in traces]
        max_len = max(len(core_ops) for core_ops in ops)
        warmup_rounds = int(max_len * warmup_frac)
        # The round boundary is each core's warmup: a core that ends
        # inside it contributes no hierarchy count.
        fronts = [front_end(trace, config, True, warmup_rounds) for trace in traces]
        latencies = [front.load_latency for front in fronts]
        clocks, instructions = [0.0] * self.cores, [0] * self.cores
        warmup_stats: Dict[str, float] = {}
        warmup_clocks, warmup_instructions = list(clocks), list(instructions)
        # Lockstep interleave: one op per core per round.
        for index in range(max_len):
            if index == warmup_rounds:
                # Warmup boundary (same round on every core): the
                # multi-core mirror of the single-core sync, snapshot and
                # subtract.
                for sync in syncs:
                    sync()
                warmup_stats = stats.snapshot()
                warmup_clocks = list(clocks)
                warmup_instructions = list(instructions)
            for core_id, core_ops in enumerate(ops):
                if index >= len(core_ops):
                    continue
                is_store, block_addr, gap = core_ops[index]
                instructions[core_id] += gap + 1
                clock = clocks[core_id] + gap * cal.cpi_base
                owner = owner_of(block_addr)
                remote = owner is not None and owner != core_id
                if not is_store:
                    if remote:
                        # Remote read: flush the owner's entry, forward data.
                        paths[owner].flush(clock, block_addr)
                        stats.add("coherence.read_flushes")
                        clock += migration_transit
                    latency = latencies[core_id][index]
                    if latency >= memory_fill_cycles and verify_load_cycles:
                        latency += mdc.access_counter(block_addr)
                        latency += verify_load_cycles
                        count_load_verification()
                    if latency <= l1_hit_cycles:
                        clock += latency
                    else:
                        clock += l1_hit_cycles + blocking * (latency - l1_hit_cycles)
                else:
                    if remote:
                        # Remote write: migrate the entry (Sec. IV-C-c).
                        secpbs[owner].remove(block_addr)
                        clock += migration_transit
                        if eager_value_dependent:
                            # Ciphertext/MAC must be regenerated by the new
                            # owner; value-independent metadata travelled.
                            clock += cal.xor_cycles
                        stats.add("coherence.migrations")
                    clock = paths[core_id].store(clock, block_addr, remote)
                clocks[core_id] = clock

        # Shared counters (engine contention, coherence traffic) cover only
        # the measured region, as on the single-core path.
        for sync in syncs:
            sync()
        stats.subtract(warmup_stats)
        for front in fronts:
            stats.merge(front.stats)
        directory.check_no_replication()
        per_core = [clock - warm for clock, warm in zip(clocks, warmup_clocks)]
        total_instructions = sum(instructions) - sum(warmup_instructions)
        stats.set("instructions", total_instructions)
        return MultiCoreResult(
            scheme=model.scheme_name, cores=self.cores, cycles=max(per_core),
            instructions=total_instructions, per_core_cycles=per_core,
            stats=stats.as_dict(),
        )


def sharing_traces(
    cores: int,
    num_ops: int,
    shared_blocks: int = 256,
    private_blocks: int = 4096,
    share_fraction: float = 0.2,
    store_fraction: float = 0.5,
    mean_gap: float = 3.0,
    seed: int = 1,
) -> List[Trace]:
    """Per-core traces with a shared hot region (migration generator).

    Each core mostly touches a private region; a ``share_fraction`` of
    references go to a region common to all cores, producing the remote
    reads/writes that exercise the coherence protocol.
    """
    import numpy as np

    if not 0.0 <= share_fraction <= 1.0:
        raise ValueError("share_fraction must be in [0, 1]")
    traces = []
    for core_id in range(cores):
        rng = np.random.default_rng(seed + core_id * 1000)
        shared = rng.random(num_ops) < share_fraction
        shared_addr = rng.integers(0, shared_blocks, size=num_ops)
        private_base = shared_blocks + core_id * private_blocks
        private_addr = private_base + rng.integers(0, private_blocks, size=num_ops)
        block_addr = np.where(shared, shared_addr, private_addr).astype(np.int64)
        is_store = rng.random(num_ops) < store_fraction
        gaps = rng.poisson(mean_gap, size=num_ops).astype(np.int32)
        traces.append(Trace(f"core{core_id}", is_store, block_addr, gaps))
    return traces
