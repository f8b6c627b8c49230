"""Functional model of the persistent main memory (PCM).

The NVM is the durable store that survives crashes.  Data and security
metadata written here (and only here, plus battery-backed structures) are
visible to the post-crash recovery observer.  Its timing lives elsewhere:
the trace simulators read Table I's latencies as
:attr:`~repro.sim.config.SystemConfig.nvm_read_cycles` /
``nvm_write_cycles``, and :mod:`repro.sim.nvm_banked` models banks and
queues.

The functional store is block-granular: 64-byte blocks keyed by block
address.  Unwritten blocks read as zero-filled, which matches a zeroed
physical memory image.
"""

from __future__ import annotations

from typing import Dict, Optional

from .config import CACHE_BLOCK_BYTES
from .stats import StatsCollector

ZERO_BLOCK = bytes(CACHE_BLOCK_BYTES)


class NonVolatileMemory:
    """Byte-addressable persistent memory with block-granular storage.

    The object intentionally has *no* notion of caches or buffers: anything
    present in ``self._blocks`` is durable.  Volatile structures layered on
    top (caches, metadata caches) live in their own models.
    """

    def __init__(self, stats: Optional[StatsCollector] = None):
        self.stats = stats if stats is not None else StatsCollector()
        self._blocks: Dict[int, bytes] = {}

    # Functional interface -------------------------------------------------

    def read_block(self, block_addr: int) -> bytes:
        """Read one 64 B block (zero-filled if never written)."""
        self.stats.add("nvm.reads")
        return self._blocks.get(block_addr, ZERO_BLOCK)

    def write_block(self, block_addr: int, data: bytes) -> None:
        """Durably write one 64 B block."""
        if len(data) != CACHE_BLOCK_BYTES:
            raise ValueError(
                f"NVM writes are block-granular: got {len(data)} bytes, "
                f"expected {CACHE_BLOCK_BYTES}"
            )
        self.stats.add("nvm.writes")
        self._blocks[block_addr] = bytes(data)

    def corrupt_block(self, block_addr: int, data: bytes) -> None:
        """Adversarially overwrite a block *without* accounting.

        Models the threat model's physical attacker tampering with PM
        contents; used by integrity-verification tests.
        """
        if len(data) != CACHE_BLOCK_BYTES:
            raise ValueError("corruption payload must be one block")
        self._blocks[block_addr] = bytes(data)

    def written_blocks(self) -> Dict[int, bytes]:
        """Snapshot of all blocks ever written (for recovery inspection)."""
        return dict(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)
