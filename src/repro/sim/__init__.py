"""Simulation substrate: configuration, caches, NVM.

This subpackage is the hardware the paper assumes around SecPB — the
volatile cache hierarchy and the PCM main memory — plus the
cycle-bookkeeping primitives the trace-driven timing model uses.
"""

from .cache import AccessOutcome, BlockState, Cache, CacheBlock, EvictionRecord
from .config import (
    CACHE_BLOCK_BYTES,
    DEFAULT_CONFIG,
    SECPB_SIZE_SWEEP,
    CacheConfig,
    NVMConfig,
    SecPBConfig,
    SecurityConfig,
    SystemConfig,
)
from .engine import BoundedPipeline, BusyResource
from .hierarchy import MemoryHierarchy
from .nvm import NonVolatileMemory
from .nvm_banked import BankedNVM, BankedNVMParams
from .wear import StartGapWearLeveler, simulate_wear
from .stats import (
    SimulationResult,
    StatsCollector,
    arithmetic_mean,
    geometric_mean,
    summarize_slowdowns,
)

__all__ = [
    "AccessOutcome",
    "BankedNVM",
    "BankedNVMParams",
    "BlockState",
    "BoundedPipeline",
    "BusyResource",
    "CACHE_BLOCK_BYTES",
    "Cache",
    "CacheBlock",
    "CacheConfig",
    "DEFAULT_CONFIG",
    "EvictionRecord",
    "MemoryHierarchy",
    "NVMConfig",
    "NonVolatileMemory",
    "SECPB_SIZE_SWEEP",
    "SecPBConfig",
    "SecurityConfig",
    "StartGapWearLeveler",
    "SimulationResult",
    "StatsCollector",
    "SystemConfig",
    "arithmetic_mean",
    "simulate_wear",
    "geometric_mean",
    "summarize_slowdowns",
]
