"""System configuration for the SecPB simulation model.

This module encodes Table I of the paper ("Simulation Configuration") as a
set of frozen dataclasses.  Every latency, capacity and geometry parameter
used anywhere in the simulator is sourced from here, so an experiment can
reproduce a paper configuration by instantiating :class:`SystemConfig` with
defaults, or explore the design space by overriding individual fields.

All latencies are expressed in *processor cycles* at the configured clock
(4 GHz by default), matching the paper's convention.  NVM latencies, which
the paper quotes in nanoseconds (read 55 ns / write 150 ns), are converted
via :meth:`SystemConfig.ns_to_cycles`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

CACHE_BLOCK_BYTES = 64
"""Block size used by every cache in the hierarchy, the SecPB and the NVM."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one set-associative cache.

    Parameters mirror one row of Table I (e.g. ``L1 Cache: 64KB, 8-way,
    64B block, access: 2 cycles``).
    """

    name: str
    size_bytes: int
    ways: int
    block_bytes: int = CACHE_BLOCK_BYTES
    access_cycles: int = 2

    @property
    def num_blocks(self) -> int:
        """Total number of blocks the cache can hold."""
        return self.size_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (``blocks / ways``)."""
        return self.num_blocks // self.ways

    def __post_init__(self) -> None:
        # A cache maps a byte address to its line by shifting out the
        # block offset, so the block size must be a power of two.
        if self.block_bytes < 1 or self.block_bytes & (self.block_bytes - 1):
            raise ValueError(
                f"{self.name}: block size {self.block_bytes} not a power of two"
            )
        if self.ways < 1:
            raise ValueError(f"{self.name}: {self.ways} ways; a cache needs at least 1")
        if self.access_cycles < 0:
            raise ValueError(f"{self.name}: negative access latency {self.access_cycles}")
        if self.size_bytes < self.block_bytes:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} smaller than one "
                f"{self.block_bytes}-byte block"
            )
        if self.size_bytes % self.block_bytes:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not a multiple of "
                f"block size {self.block_bytes}"
            )
        if self.num_blocks % self.ways:
            raise ValueError(
                f"{self.name}: {self.num_blocks} blocks not divisible by "
                f"{self.ways} ways"
            )


@dataclass(frozen=True)
class SecPBConfig:
    """Secure persist buffer parameters (Table I, "SecPB" section).

    The paper evaluates sizes in {8, 16, 32, 64, 128, 256, 512} entries with a
    default of 32, a 2-cycle access and a 75% drain (high watermark)
    threshold.  The low watermark is where draining stops; the paper drains
    "until sufficient entries have been drained to reach a low watermark" —
    we default it to half the high watermark.  Table I's 260 B entry size is
    not a field: no model reads it (battery sizing counts each scheme's
    fields, Fig. 5).
    """

    entries: int = 32
    access_cycles: int = 2
    high_watermark: float = 0.75
    low_watermark: float = 0.375

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError("SecPB must have at least one entry")
        if not 0.0 < self.high_watermark <= 1.0:
            raise ValueError("high watermark must be in (0, 1]")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ValueError("low watermark must be in [0, high)")

    @property
    def high_watermark_entries(self) -> int:
        """Occupancy (in entries) at which draining starts."""
        return max(1, int(self.entries * self.high_watermark))

    @property
    def low_watermark_entries(self) -> int:
        """Occupancy (in entries) at which draining stops."""
        return int(self.entries * self.low_watermark)


@dataclass(frozen=True)
class SecurityConfig:
    """Security-mechanism parameters (Table I, "Security Mechanisms").

    ``bmt_levels`` is the number of hash computations on a leaf-to-root
    update path (the paper uses an 8-level BMT).  ``mac_latency_cycles`` is
    also used as the per-level hash latency and the AES/OTP generation
    latency, following the paper's IPC validation for ``gamess`` which uses
    40 cycles for both (8 x 40 = 320-cycle root update, 40-cycle MAC).
    The split-counter geometry (7-bit minors, 64 per page) is fixed by
    ``MINOR_BITS`` and ``MINOR_COUNTERS_PER_PAGE`` in
    :mod:`repro.security.counters`, not configured here.
    """

    bmt_levels: int = 8
    mac_latency_cycles: int = 40
    aes_latency_cycles: int = 40
    speculative_verification: bool = True

    @property
    def bmt_update_cycles(self) -> int:
        """Cycles to update the BMT from leaf to root (serialized hashes)."""
        return self.bmt_levels * self.mac_latency_cycles


@dataclass(frozen=True)
class NVMConfig:
    """PCM main-memory parameters (Table I, "NVM").

    The latencies are converted to processor cycles by
    :attr:`SystemConfig.nvm_read_cycles` / :attr:`SystemConfig.nvm_write_cycles`;
    the write queue bounds the banked model's drain backpressure.
    """

    read_ns: float = 55.0
    write_ns: float = 150.0
    write_queue_entries: int = 128

    def __post_init__(self) -> None:
        if self.read_ns < 0 or self.write_ns < 0:
            raise ValueError(
                f"NVM latencies must be non-negative: read {self.read_ns} ns, "
                f"write {self.write_ns} ns"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Complete system configuration (Table I).

    A single :class:`SystemConfig` instance fully determines the timing model
    of one simulation: cache geometry, SecPB size, metadata-cache geometry,
    security latencies and NVM timing.
    """

    clock_ghz: float = 4.0
    store_buffer_entries: int = 32

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 64 * 1024, 8, access_cycles=2)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * 1024, 16, access_cycles=20)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 4 * 1024**2, 32, access_cycles=30)
    )

    counter_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("CTR$", 128 * 1024, 8, access_cycles=2)
    )
    mac_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("MAC$", 128 * 1024, 8, access_cycles=2)
    )
    bmt_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("BMT$", 128 * 1024, 8, access_cycles=2)
    )

    secpb: SecPBConfig = field(default_factory=SecPBConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    nvm: NVMConfig = field(default_factory=NVMConfig)

    def ns_to_cycles(self, nanoseconds: float) -> int:
        """Convert a wall-clock latency to processor cycles."""
        return int(round(nanoseconds * self.clock_ghz))

    @property
    def nvm_read_cycles(self) -> int:
        """NVM array read latency in processor cycles (55 ns default -> 220)."""
        return self.ns_to_cycles(self.nvm.read_ns)

    @property
    def nvm_write_cycles(self) -> int:
        """NVM array write latency in processor cycles (150 ns default -> 600)."""
        return self.ns_to_cycles(self.nvm.write_ns)

    @property
    def memory_round_trip_cycles(self) -> int:
        """Approximate load-miss round trip: L1 + L2 + L3 + NVM read."""
        return (
            self.l1.access_cycles
            + self.l2.access_cycles
            + self.l3.access_cycles
            + self.nvm_read_cycles
        )

    def with_secpb_entries(self, entries: int) -> "SystemConfig":
        """Return a copy of this configuration with a different SecPB size."""
        return dataclasses.replace(
            self, secpb=dataclasses.replace(self.secpb, entries=entries)
        )

    def with_bmt_levels(self, levels: int) -> "SystemConfig":
        """Return a copy with a different BMT height (used by the BMF study)."""
        return dataclasses.replace(
            self, security=dataclasses.replace(self.security, bmt_levels=levels)
        )


DEFAULT_CONFIG = SystemConfig()
"""The paper's default configuration (Table I verbatim)."""

SECPB_SIZE_SWEEP = (8, 16, 32, 64, 128, 256, 512)
"""SecPB sizes evaluated in the paper (Fig. 7, Fig. 8, Table VI)."""
