"""The SP baseline: strict persistency with SPoP at the memory controller.

This is the state of the art the paper improves on — the PLP [18] strict
persistency scheme ("SP scheme from [18] with SPoP in MC", Table II).
There is no persist buffer: every persistent store must be flushed to the
memory controller and its *entire memory tuple* (counter, OTP/ciphertext,
BMT root, MAC) updated there, in persist order, before the next store may
persist.  The BMT root update is serialized at the MC, which is the
bottleneck PLP identified.

The class reuses the same hierarchy, metadata caches and calibration as
the SecPB simulator so that Fig. 9 comparisons (sp vs sp_dbmf vs sp_sbmf
vs cm_dbmf vs cm_sbmf) differ only in the mechanisms under study.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.controller import TimingCalibration
from ..core.simulator import StorePath, TraceSimulator
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BoundedPipeline
from ..sim.stats import SimulationResult, StatsCollector
from ..workloads.trace import Trace


class StrictPersistencySimulator(TraceSimulator):
    """Trace-driven timing model of PLP-style SP (SPoP at the MC).

    Args:
        config: Table I system configuration.
        calibration: shared free timing constants.
        bmt_levels_fn: per-page BMT update height (BMF hook for sp_dbmf /
            sp_sbmf); defaults to the full configured height.
    """

    scheme_name = "sp"

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        calibration: Optional[TimingCalibration] = None,
        bmt_levels_fn: Optional[Callable[[int], int]] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.calibration = (
            calibration if calibration is not None else TimingCalibration()
        )
        self._bmt_levels_fn = bmt_levels_fn

    def _store_path(self, stats: StatsCollector) -> StorePath:
        """The tuple update at the MC, then the store-buffer push."""
        config = self.config
        cal = self.calibration
        mdc = MetadataCaches(config, stats)
        # The MC's tuple engine is a single-server FIFO: updates serialize
        # on one free_at point.
        mc_free_at = 0.0
        store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)
        transit_to_mc = (
            config.l1.access_cycles
            + config.l2.access_cycles
            + config.l3.access_cycles
        )
        hash_cycles = config.security.mac_latency_cycles
        aes_cycles = config.security.aes_latency_cycles
        levels_fn = self._bmt_levels_fn
        full_levels = config.security.bmt_levels
        # Each store updates the BMT root and generates a MAC once; the
        # count reaches ``stats`` through ``sync``.
        stores = 0

        def store(clock: float, block_addr: int) -> float:
            # Tuple update at the MC, serialized in persist order.  The
            # flush transit and the MAC latency pipeline with younger
            # stores (PLP's persist-level parallelism); the counter access
            # and the single-in-flight BMT update serialize.
            nonlocal stores, mc_free_at
            stores += 1
            page = block_addr // 64
            ctr_latency = mdc.access_counter(page)
            levels = levels_fn(page) if levels_fn is not None else full_levels
            service = (
                ctr_latency
                + cal.counter_increment_cycles
                + max(aes_cycles, levels * hash_cycles)
                + cal.xor_cycles
            )
            start = mc_free_at if mc_free_at > clock else clock
            mc_free_at = busy_done = start + service
            completion = busy_done + transit_to_mc + hash_cycles  # + MAC

            stall = store_buffer.push(clock, completion)
            return clock + (stall + 1.0)

        def sync() -> None:
            """Add the tuple updates since the last sync to ``stats``."""
            nonlocal stores
            stats.add_counts(
                (("bmt.root_updates", stores), ("mac.generations", stores))
            )
            stores = 0

        return StorePath(store, sync, mdc)


def run_sp(
    trace: Trace,
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
    bmt_levels_fn: Optional[Callable[[int], int]] = None,
) -> SimulationResult:
    """Convenience one-shot SP run."""
    return StrictPersistencySimulator(config, calibration, bmt_levels_fn).run(trace)
