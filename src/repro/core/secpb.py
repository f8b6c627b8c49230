"""The secure persist buffer (SecPB) structure.

Each core's SecPB (Fig. 5) is a small battery-backed table.  An entry
tracks one 64 B dirty block and, depending on the scheme, eagerly computed
security metadata:

====== ======================================= ===========================
Field  Contents                                Kept by
====== ======================================= ===========================
Dp     data plaintext (64 B)                   all designs
O      pre-computed OTP (64 B)                 nogap, m, cm, bcm
Dc     data ciphertext (64 B)                  nogap, m
C      counter (8 bit)                         nogap, m, cm, bcm, obcm
B      BMT-root-updated acknowledgement (1 b)  nogap, m, cm
M      MAC (512 b)                             nogap
====== ======================================= ===========================

Every field carries a valid bit; an entry is *drainable* when every field
its scheme requires is valid.  The buffer drains (oldest first) when it
reaches the high watermark, until the low watermark; on a crash it drains
completely on battery.

This module is purely structural/functional — latencies live in
:mod:`repro.core.controller` and :mod:`repro.core.simulator`.

Residency versus entries: a :class:`SecPB` keeps one FIFO map from block
address to entry, oldest first.  The functional models (crash, recovery,
the coherence protocol) store a :class:`SecPBEntry` per block, with its
writes, plaintext and valid bits.  The timing model keeps only
residency: its store path maps each resident block to ``None``, because
no timing decision reads an entry's fields (a migrated entry's counter
is valid exactly when the scheme runs the counter step early).  On such
a buffer only the residency queries apply: ``in``, :attr:`occupancy`,
:meth:`resident_blocks`, :meth:`remove` and :meth:`drain_targets`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..sim.config import SecPBConfig
from ..sim.stats import StatsCollector
from .schemes import MetadataStep, Scheme

# Which SecPB fields each scheme populates eagerly (Fig. 5's field table).
_FIELD_FOR_STEP: Dict[MetadataStep, str] = {
    MetadataStep.COUNTER: "C",
    MetadataStep.OTP: "O",
    MetadataStep.BMT_ROOT: "B",
    MetadataStep.CIPHERTEXT: "Dc",
    MetadataStep.MAC: "M",
}


def fields_for_scheme(scheme: Scheme) -> FrozenSet[str]:
    """SecPB fields (besides Dp) the given scheme keeps (Fig. 5 table)."""
    return frozenset(_FIELD_FOR_STEP[step] for step in scheme.early_steps)


class SecPBEntry:
    """One SecPB table entry.

    ``valid`` tracks the per-field valid bits; only fields the scheme
    keeps ever become valid.  ``writes`` counts coalesced stores for the
    NWPE statistic; ``asid`` supports the drain-process crash policy.

    A ``__slots__`` class: the functional models allocate one per
    residency.  The timing model allocates none (see the module
    docstring); the controller's ``price_*`` methods, its reference,
    still set ``valid``.
    """

    __slots__ = ("block_addr", "asid", "writes", "plaintext", "valid")

    def __init__(
        self,
        block_addr: int,
        asid: int = 0,
        writes: int = 0,
        plaintext: Optional[bytes] = None,
        valid: Optional[Dict[str, bool]] = None,
    ):
        self.block_addr = block_addr
        self.asid = asid
        self.writes = writes
        self.plaintext = plaintext
        if valid is None:
            valid = {"O": False, "Dc": False, "C": False, "B": False, "M": False}
        self.valid = valid

    def __repr__(self) -> str:
        return (
            f"SecPBEntry(block_addr={self.block_addr!r}, asid={self.asid!r}, "
            f"writes={self.writes!r}, plaintext={self.plaintext!r}, "
            f"valid={self.valid!r})"
        )

    def metadata_complete(self, scheme: Scheme) -> bool:
        """True when every field the scheme tracks eagerly is valid."""
        return all(self.valid[_FIELD_FOR_STEP[s]] for s in scheme.early_steps)

    def invalidate_value_dependent(self) -> None:
        """A new store changed the plaintext: Dc and M must be redone."""
        self.valid["Dc"] = False
        self.valid["M"] = False

    def mark(self, step: MetadataStep) -> None:
        """Set the valid bit of the field backing ``step``."""
        self.valid[_FIELD_FOR_STEP[step]] = True

    def is_marked(self, step: MetadataStep) -> bool:
        return self.valid[_FIELD_FOR_STEP[step]]

    def adopt_value_independent(self, source: "SecPBEntry") -> None:
        """Take over a migrating entry's counter/OTP/BMT valid bits.

        Value-independent metadata travels with an entry to its new owner
        (Sec. IV-C-c); the value-dependent fields are redone there.
        """
        for step in (MetadataStep.COUNTER, MetadataStep.OTP, MetadataStep.BMT_ROOT):
            if source.is_marked(step):
                self.mark(step)


class DrainedEntry:
    """An entry leaving the SecPB toward the memory controller."""

    __slots__ = ("block_addr", "writes", "plaintext", "metadata_was_complete")

    def __init__(
        self,
        block_addr: int,
        writes: int,
        plaintext: Optional[bytes],
        metadata_was_complete: bool,
    ):
        self.block_addr = block_addr
        self.writes = writes
        self.plaintext = plaintext
        self.metadata_was_complete = metadata_was_complete

    def __repr__(self) -> str:
        return (
            f"DrainedEntry(block_addr={self.block_addr!r}, writes={self.writes!r}, "
            f"plaintext={self.plaintext!r}, "
            f"metadata_was_complete={self.metadata_was_complete!r})"
        )


class SecPB:
    """The per-core secure persist buffer (structure + occupancy policy)."""

    def __init__(
        self,
        config: SecPBConfig,
        scheme: Scheme,
        stats: Optional[StatsCollector] = None,
    ):
        self.config = config
        self.scheme = scheme
        self.stats = stats if stats is not None else StatsCollector()
        # Block address -> entry, oldest first; the timing model's store
        # path stores None (residency only; see the module docstring).
        self._entries: "OrderedDict[int, Optional[SecPBEntry]]" = OrderedDict()
        # Hot-path constants, resolved once: buffer geometry and the
        # scheme's eagerly kept fields (for drain-time completeness
        # checks without per-drain enum lookups).
        self._capacity = config.entries
        self._low_watermark_entries = config.low_watermark_entries
        self._high_watermark_entries = config.high_watermark_entries
        self._required_fields = tuple(
            _FIELD_FOR_STEP[step] for step in scheme.early_steps
        )
        self._count_write = self.stats.counter("secpb.writes")
        self._count_allocation = self.stats.counter("secpb.allocations")
        self._count_drain = self.stats.counter("secpb.drains")

    # Queries -------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.config.entries

    @property
    def above_high_watermark(self) -> bool:
        return self.occupancy >= self.config.high_watermark_entries

    def __contains__(self, block_addr: int) -> bool:
        """Whether the block is resident (holds on every SecPB)."""
        return block_addr in self._entries

    def lookup(self, block_addr: int) -> Optional[SecPBEntry]:
        return self._entries.get(block_addr)

    def resident_blocks(self) -> List[int]:
        """Resident block addresses, oldest first (holds on every SecPB)."""
        return list(self._entries)

    def entries(self) -> List[SecPBEntry]:
        """All entries, oldest first."""
        return list(self._entries.values())

    # Store path ----------------------------------------------------------

    def write(
        self,
        block_addr: int,
        plaintext: Optional[bytes] = None,
        asid: int = 0,
    ) -> Tuple[SecPBEntry, bool]:
        """Apply one store to the buffer.

        The caller must have made room (the buffer never evicts on write;
        drains are explicit, mirroring the watermark policy).

        Returns:
            (entry, newly_allocated)

        Raises:
            RuntimeError: when a new entry is needed but the buffer is full
                (the controller should have drained first — hitting this
                models the "backflow" stall, which the controller handles
                by draining before retrying).
        """
        self._count_write()
        entries = self._entries
        entry = entries.get(block_addr)
        if entry is not None:
            entry.writes += 1
            if plaintext is not None:
                entry.plaintext = plaintext
            # Data-value-dependent metadata is stale after any store.
            valid = entry.valid
            valid["Dc"] = False
            valid["M"] = False
            return entry, False

        if len(entries) >= self._capacity:
            raise RuntimeError(
                "SecPB full: drain before allocating "
                f"(occupancy {self.occupancy}/{self.config.entries})"
            )
        entry = SecPBEntry(block_addr=block_addr, asid=asid, writes=1, plaintext=plaintext)
        entries[block_addr] = entry
        self._count_allocation()
        return entry, True

    # Hot-path variants -----------------------------------------------------
    #
    # The object store path kept as the timing model's reference
    # (tests/test_store_path.py) calls these per store; the timing model
    # keeps only residency and calls none of them.  They split
    # :meth:`write` at the lookup the caller already performed (the
    # backflow check needs the hit/miss answer *before* the write) and
    # drop the metadata-only conveniences (plaintext, ASID) the timing
    # path never uses.  They count nothing: the caller counts the writes,
    # allocations and drains that write()/drain_oldest() would.

    def coalesce(self, entry: SecPBEntry) -> None:
        """Apply a store to an entry the caller just looked up.

        The caller counts the write.
        """
        entry.writes += 1
        valid = entry.valid
        valid["Dc"] = False
        valid["M"] = False

    def allocate(self, block_addr: int) -> SecPBEntry:
        """Allocate a fresh entry; the caller has verified there is room.

        The caller counts the write and the allocation.
        """
        entries = self._entries
        if len(entries) >= self._capacity:
            raise RuntimeError(
                "SecPB full: drain before allocating "
                f"(occupancy {self.occupancy}/{self.config.entries})"
            )
        entry = SecPBEntry(block_addr, 0, 1, None)
        entries[block_addr] = entry
        return entry

    def drain_oldest_addr(self) -> int:
        """Pop the oldest entry, returning only its block address.

        The timing path prices a drain by address alone; skipping the
        :class:`DrainedEntry` construction and the completeness check
        (both side-effect-free) keeps the watermark drain cheap.  The
        caller counts the drain.
        """
        if not self._entries:
            raise RuntimeError("cannot drain an empty SecPB")
        _, entry = self._entries.popitem(last=False)
        return entry.block_addr

    # Drain path ----------------------------------------------------------

    def drain_targets(self) -> int:
        """Entries to drain now to get from high back to low watermark."""
        occupancy = len(self._entries)
        if occupancy < self._high_watermark_entries:
            return 0
        return occupancy - self._low_watermark_entries

    def drain_oldest(self) -> DrainedEntry:
        """Remove and return the oldest entry (FIFO drain order).

        Raises:
            RuntimeError: when the buffer is empty.
        """
        if not self._entries:
            raise RuntimeError("cannot drain an empty SecPB")
        _, entry = self._entries.popitem(last=False)
        self._count_drain()
        valid = entry.valid
        return DrainedEntry(
            block_addr=entry.block_addr,
            writes=entry.writes,
            plaintext=entry.plaintext,
            metadata_was_complete=all(valid[f] for f in self._required_fields),
        )

    def drain_all(self) -> List[DrainedEntry]:
        """Drain every entry (crash path, drain-all policy)."""
        drained = []
        while self._entries:
            drained.append(self.drain_oldest())
        return drained

    def drain_process(self, asid: int) -> List[DrainedEntry]:
        """Drain only one process's entries (drain-process crash policy).

        Requires ASID-tagged entries; other processes' entries stay
        resident to preserve their coalescing opportunities (Sec. III-B).
        """
        keep: "OrderedDict[int, SecPBEntry]" = OrderedDict()
        drained: List[DrainedEntry] = []
        for addr, entry in self._entries.items():
            if entry.asid == asid:
                self.stats.add("secpb.drains")
                drained.append(
                    DrainedEntry(
                        block_addr=entry.block_addr,
                        writes=entry.writes,
                        plaintext=entry.plaintext,
                        metadata_was_complete=entry.metadata_complete(self.scheme),
                    )
                )
            else:
                keep[addr] = entry
        self._entries = keep
        return drained

    def remove(self, block_addr: int) -> Optional[SecPBEntry]:
        """Remove one entry (coherence migration/flush path)."""
        return self._entries.pop(block_addr, None)

    def discard_remaining(self) -> List[SecPBEntry]:
        """Drop every resident entry WITHOUT draining it (battery death).

        The SecPB is battery-backed SRAM: when the crash battery browns
        out mid-drain, whatever is still resident is simply gone.  Unlike
        :meth:`drain_all` this counts no drains and produces no
        :class:`DrainedEntry` objects — the returned entries were *lost*,
        and the caller records their blocks as unpersisted.
        """
        lost = list(self._entries.values())
        self._entries.clear()
        self.stats.add("secpb.brownout_losses", len(lost))
        return lost
