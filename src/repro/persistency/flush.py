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
from typing import Optional, Set

from ..core.controller import TimingCalibration
from ..core.simulator import StorePath, TraceSimulator
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BusyResource
from ..sim.stats import StatsCollector


class PersistencyModel(enum.Enum):
    """The persistency model driving flush/fence placement."""

    STRICT = "strict"
    EPOCH = "epoch"


class FlushBasedSimulator(TraceSimulator):
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

    # A traditional hierarchy: stores land in volatile caches until flushed.
    persist_region = False

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

    def _store_path(self, stats: StatsCollector) -> StorePath:
        """clwb (+sfence) per store, or epoch bookkeeping and fences."""
        config = self.config
        cal = self.calibration
        mdc = MetadataCaches(config, stats) if self.secure else None
        # Writeback occupies the NVM write path via the WPQ.
        writeback = float(cal.drain_transfer_cycles)
        otp_or_bmt = max(
            config.security.aes_latency_cycles, config.security.bmt_update_cycles
        )
        mc_engine = BusyResource("flush-mc-engine")
        transit = (
            config.l1.access_cycles
            + config.l2.access_cycles
            + config.l3.access_cycles
        )
        strict = self.model is PersistencyModel.STRICT
        epoch_stores = self.epoch_stores
        epoch_dirty: Set[int] = set()
        epoch_store_count = 0
        # Flushed lines and fences, added to ``stats`` by ``sync``.
        lines = fences = 0

        def flush_service(block_addr: int) -> float:
            """MC-side service for persisting one flushed line."""
            service = writeback
            if mdc is not None:
                service += mdc.access_counter(block_addr // 64)
                service += cal.counter_increment_cycles
                service += otp_or_bmt
                service += cal.xor_cycles
                service += config.security.mac_latency_cycles
            return service

        def fence_epoch(now: float) -> float:
            """Flush every epoch-dirty line; return the fence-release time."""
            nonlocal lines, fences
            done = now
            for block in epoch_dirty:
                service = flush_service(block)
                _, completion = mc_engine.request(now, service)
                done = max(done, completion)
            lines += len(epoch_dirty)
            fences += 1
            epoch_dirty.clear()
            # The clwb'd data still has to travel to the MC once.
            return done + transit

        def store(clock: float, block_addr: int) -> float:
            nonlocal epoch_store_count, lines, fences
            clock += 1.0
            if strict:
                # clwb + sfence per store: the core waits for the persist.
                service = flush_service(block_addr)
                _, completion = mc_engine.request(clock, service)
                lines += 1
                fences += 1
                return completion + transit
            epoch_dirty.add(block_addr)
            epoch_store_count += 1
            if epoch_store_count >= epoch_stores:
                epoch_store_count = 0
                return fence_epoch(clock)
            return clock

        def finish(clock: float) -> float:
            """Fence the last, partial epoch (inside the measured region)."""
            return fence_epoch(clock) if epoch_dirty else clock

        def sync() -> None:
            """Add the lines and fences since the last sync to ``stats``."""
            nonlocal lines, fences
            stats.add_counts((("flush.lines", lines), ("flush.fences", fences)))
            lines = fences = 0

        return StorePath(store, sync, mdc, finish)
