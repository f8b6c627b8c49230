"""Multi-core SecPB coherence: directory, migration, and flush-on-read.

Section IV-C: each core has a private SecPB, but a block (and, for eager
schemes, its metadata) must never be *replicated* across SecPBs.  The
memory-side metadata caches carry a directory tagging which SecPB a block
or metadata item may reside in.  The protocol:

* **remote read**  — the owner's cache services the data (shared state)
  while the owner's SecPB entry is flushed to PM in parallel, persisting
  the latest data+metadata;
* **remote write** — the SecPB entry *migrates* to the requesting core.
  Value-independent metadata (counter/OTP/BMT) travels with it and is not
  recomputed; eager schemes regenerate only ciphertext/MAC at the new
  owner.  No replication ever exists.

Ownership is residency: the directory keeps no map of its own, and a
block's owner is the core whose SecPB holds it.  This module is the
functional protocol (the coherence tests and example drive it), and it
answers every ownership question of the multi-core timing model
(:mod:`repro.core.multicore`), which audits it after each run.  The
paper's Table IV timing is single-core (Table I) and never consults it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.stats import StatsCollector
from .schemes import Scheme
from .secpb import SecPB, SecPBEntry


class CoherenceError(Exception):
    """Raised when the no-replication invariant would be violated."""


@dataclass
class MigrationReport:
    """What a remote write had to do to take ownership of a block."""

    block_addr: int
    from_core: int
    to_core: int
    value_independent_recomputed: bool
    value_dependent_recomputed: bool


class SecPBDirectory:
    """Directory over all cores' SecPBs enforcing single-residency.

    Args:
        secpbs: per-core SecPB instances (index = core id).
        scheme: the scheme all cores run (homogeneous system).
    """

    def __init__(
        self,
        secpbs: List[SecPB],
        scheme: Scheme,
        stats: Optional[StatsCollector] = None,
    ):
        if not secpbs:
            raise ValueError("directory needs at least one SecPB")
        self.secpbs = secpbs
        self.scheme = scheme
        self.stats = stats if stats is not None else StatsCollector()

    # Queries -----------------------------------------------------------

    def owner_of(self, block_addr: int) -> Optional[int]:
        """Core whose SecPB holds the block, or None."""
        for core_id, secpb in enumerate(self.secpbs):
            if secpb.lookup(block_addr) is not None:
                return core_id
        return None

    def check_no_replication(self) -> None:
        """Audit: every block resides in at most one SecPB.

        Raises:
            CoherenceError: naming the replicated block.
        """
        seen: Dict[int, int] = {}
        for core_id, secpb in enumerate(self.secpbs):
            for entry in secpb.entries():
                if entry.block_addr in seen:
                    raise CoherenceError(
                        f"block {entry.block_addr:#x} replicated in SecPBs "
                        f"of cores {seen[entry.block_addr]} and {core_id}"
                    )
                seen[entry.block_addr] = core_id

    # Protocol ------------------------------------------------------------

    def local_write(self, core_id: int, block_addr: int, plaintext: Optional[bytes] = None) -> SecPBEntry:
        """A store by ``core_id``; migrates ownership first if remote.

        Returns the (possibly migrated) entry now owned by ``core_id``.
        """
        self._validate_core(core_id)
        current = self.owner_of(block_addr)
        if current is not None and current != core_id:
            self.migrate(block_addr, to_core=core_id)
        secpb = self.secpbs[core_id]
        if secpb.full and secpb.lookup(block_addr) is None:
            secpb.drain_oldest()
        entry, _ = secpb.write(block_addr, plaintext)
        return entry

    def remote_read(self, reader_core: int, block_addr: int) -> Optional[bytes]:
        """A load by a non-owner core (Sec. IV-C: flush + share).

        The owner's SecPB entry is flushed (drained) to PM while the data
        is forwarded; the block leaves the SecPB domain entirely, so no
        core owns it any more.

        Returns:
            The forwarded plaintext (None when no SecPB held the block).
        """
        self._validate_core(reader_core)
        owner = self.owner_of(block_addr)
        if owner is None or owner == reader_core:
            return None
        entry = self.secpbs[owner].remove(block_addr)
        self.stats.add("coherence.read_flushes")
        return entry.plaintext

    def migrate(self, block_addr: int, to_core: int) -> MigrationReport:
        """Move a SecPB entry between cores for a remote write.

        Value-independent metadata (counter/OTP/BMT acknowledgement)
        migrates with the entry; value-dependent metadata (ciphertext,
        MAC) is invalidated because the new owner is about to change the
        plaintext (Sec. IV-C-c).

        Raises:
            CoherenceError: when no SecPB owns the block.
        """
        self._validate_core(to_core)
        from_core = self.owner_of(block_addr)
        if from_core is None:
            raise CoherenceError(f"no SecPB owns block {block_addr:#x}")
        if from_core == to_core:
            raise CoherenceError(
                f"block {block_addr:#x} already owned by core {to_core}"
            )
        entry = self.secpbs[from_core].remove(block_addr)
        target = self.secpbs[to_core]
        if target.full:
            # Make room the way the hardware would: drain the oldest entry.
            target.drain_oldest()
            self.stats.add("coherence.migration_drains")
        migrated, _ = target.write(block_addr, entry.plaintext)
        migrated.adopt_value_independent(entry)
        migrated.invalidate_value_dependent()
        migrated.writes = entry.writes + migrated.writes - 1
        self.stats.add("coherence.migrations")
        needs_value_dependent = bool(self.scheme.eager_value_dependent)
        return MigrationReport(
            block_addr=block_addr,
            from_core=from_core,
            to_core=to_core,
            value_independent_recomputed=False,
            value_dependent_recomputed=needs_value_dependent,
        )

    def _validate_core(self, core_id: int) -> None:
        if not 0 <= core_id < len(self.secpbs):
            raise IndexError(
                f"core {core_id} out of range (have {len(self.secpbs)})"
            )
