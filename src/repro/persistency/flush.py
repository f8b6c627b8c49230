"""Flush-based persistency on a traditional (non-persistent) hierarchy.

Section II-C background, made runnable: before persistent hierarchies,
software persisted data with explicit cache-line writebacks (``clwb``) and
ordering fences (``sfence``), under a memory persistency model:

* **strict persistency (SP)** — every persistent store is flushed and
  fenced individually; persist order equals program order.  Correct,
  simple, and slow: the paper calls it "often considered as too
  performance restrictive".
* **epoch persistency** — stores within an epoch may persist in any
  order; only epoch boundaries fence.  Flushes within an epoch overlap,
  so the core pays roughly one drain latency per epoch instead of one
  per store.

Both run here over the same hierarchy/trace substrate as the SecPB
simulator, optionally with a secure MC (every flushed line's memory tuple
updated at the controller, as in sec_wt/PLP-era systems).  Comparing them
against BBB and SecPB quantifies the intro's motivation: persistent
hierarchy eliminates flushes and fences, and SecPB keeps that benefit
under security.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Set

from ..core.controller import TimingCalibration
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BusyResource
from ..sim.hierarchy import MemoryHierarchy
from ..sim.stats import SimulationResult, StatsCollector
from ..workloads.trace import Trace


class PersistencyModel(enum.Enum):
    """The persistency model driving flush/fence placement."""

    STRICT = "strict"
    EPOCH = "epoch"


class FlushBasedSimulator:
    """Trace-driven timing model of clwb/sfence persistency.

    Args:
        model: strict (flush+fence per store) or epoch persistency.
        epoch_stores: stores per epoch for the epoch model.
        secure: when True, each flushed line pays a serialized memory-tuple
            update at the MC (counter, OTP/BMT in parallel, MAC) — the
            write-through secure-memory discipline ("sec_wt").
        config: Table I system configuration.
        calibration: shared free timing constants.
    """

    def __init__(
        self,
        model: PersistencyModel = PersistencyModel.STRICT,
        epoch_stores: int = 32,
        secure: bool = False,
        config: Optional[SystemConfig] = None,
        calibration: Optional[TimingCalibration] = None,
    ):
        if epoch_stores < 1:
            raise ValueError("epoch_stores must be >= 1")
        self.model = model
        self.epoch_stores = epoch_stores
        self.secure = secure
        self.config = config if config is not None else SystemConfig()
        self.calibration = (
            calibration if calibration is not None else TimingCalibration()
        )

    @property
    def scheme_name(self) -> str:
        suffix = "_secure" if self.secure else ""
        if self.model is PersistencyModel.STRICT:
            return f"flush_strict{suffix}"
        return f"flush_epoch{self.epoch_stores}{suffix}"

    def _flush_service(self, mdc: Optional[MetadataCaches], block_addr: int) -> float:
        """MC-side service for persisting one flushed line."""
        config = self.config
        cal = self.calibration
        # Writeback occupies the NVM write path via the WPQ.
        service = float(cal.drain_transfer_cycles)
        if self.secure and mdc is not None:
            service += mdc.access_counter(block_addr // 64)
            service += cal.counter_increment_cycles
            service += max(
                config.security.aes_latency_cycles,
                config.security.bmt_update_cycles,
            )
            service += cal.xor_cycles
            service += config.security.mac_latency_cycles
        return service

    def run(self, trace: Trace, warmup_frac: float = 0.0) -> SimulationResult:
        """Simulate one trace under the flush-based discipline."""
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        config = self.config
        cal = self.calibration
        stats = StatsCollector()
        hierarchy = MemoryHierarchy(config, stats)
        mdc = MetadataCaches(config, stats) if self.secure else None
        mc_engine = BusyResource("flush-mc-engine")
        transit = (
            config.l1.access_cycles
            + config.l2.access_cycles
            + config.l3.access_cycles
        )

        clock = 0.0
        instructions = 0
        l1_hit = config.l1.access_cycles
        epoch_dirty: Set[int] = set()
        epoch_store_count = 0
        epoch_flush_done = 0.0

        warmup_ops = int(len(trace) * warmup_frac)
        warmup_clock = 0.0
        warmup_instructions = 0
        warmup_stats: Dict[str, float] = {}
        op_index = 0

        def fence_epoch(now: float) -> float:
            """Flush every epoch-dirty line; return the fence-release time."""
            nonlocal epoch_flush_done
            done = now
            for block in epoch_dirty:
                service = self._flush_service(mdc, block)
                _, completion = mc_engine.request(now, service)
                done = max(done, completion)
                stats.add("flush.lines")
            epoch_dirty.clear()
            stats.add("flush.fences")
            # The clwb'd data still has to travel to the MC once.
            return done + transit

        for is_store, block_addr, gap in trace.iter_ops():
            if op_index == warmup_ops and warmup_ops:
                warmup_clock = clock
                warmup_instructions = instructions
                warmup_stats = stats.snapshot()
            op_index += 1
            instructions += gap + 1
            clock += gap * cal.cpi_base
            byte_addr = block_addr << 6

            if not is_store:
                latency = hierarchy.load_latency(byte_addr)
                if latency <= l1_hit:
                    clock += latency
                else:
                    clock += l1_hit + cal.load_blocking_fraction * (latency - l1_hit)
                continue

            hierarchy.store_access(byte_addr, persist_region=False)
            clock += 1.0

            if self.model is PersistencyModel.STRICT:
                # clwb + sfence per store: the core waits for the persist.
                service = self._flush_service(mdc, block_addr)
                _, completion = mc_engine.request(clock, service)
                clock = completion + transit
                stats.add("flush.lines")
                stats.add("flush.fences")
            else:
                epoch_dirty.add(block_addr)
                epoch_store_count += 1
                if epoch_store_count >= self.epoch_stores:
                    clock = fence_epoch(clock)
                    epoch_store_count = 0

        if self.model is PersistencyModel.EPOCH and epoch_dirty:
            clock = fence_epoch(clock)

        if warmup_ops:
            # Warmup counts (flushed lines, fences, cache hits) are
            # excluded so the stats cover the same measured region as
            # cycles; the end-of-trace fence above stays in it.
            stats.subtract(warmup_stats)
        stats.set("instructions", instructions - warmup_instructions)
        return SimulationResult(
            scheme=self.scheme_name,
            benchmark=trace.name,
            cycles=clock - warmup_clock,
            instructions=instructions - warmup_instructions,
            stats=stats.as_dict(),
        )
