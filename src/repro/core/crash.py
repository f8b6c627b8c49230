"""Crash injection, battery drain, and sec-sync — the functional system.

:class:`SecurePersistentSystem` is the *functional* (value-accurate)
counterpart of the timing simulator: stores carry real 64-byte payloads,
metadata is really computed, and after a crash only what reached PM
survives.  It demonstrates the paper's central claim end to end:

* **SecPB discipline** — data persists the instant a store enters the
  battery-backed buffer; on a crash the battery drains every entry and
  performs the scheme's *late* steps (the sec-sync), after which the
  recovery observer verifies and decrypts everything successfully.
* **Naive gap discipline** (:class:`GappedPersistentSystem`) — the
  recoverability gap of Fig. 1(b): data reaches PM but security metadata
  sits in volatile caches; a crash loses it and recovery fails.

Both crash policies of Sec. III-B are implemented for application crashes
(drain-all vs drain-process), and both observation policies (blocking vs
warning) are honoured via :class:`~repro.core.recovery.RecoveryObserver`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.tracing import LANE_CRASH, Tracer
from ..security.engine import SecureMemory
from ..security.tuple import TupleComponent, TupleState, audit_observable_state
from ..sim.config import CACHE_BLOCK_BYTES, SystemConfig
from .recovery import ObserverPolicy, RecoveryObserver, RecoveryReport
from .schemes import ALL_STEPS, Scheme
from .secpb import DrainedEntry, SecPB, SecPBEntry


class AppCrashPolicy(enum.Enum):
    """How an application crash drains the SecPB (Sec. III-B)."""

    DRAIN_ALL = "drain-all"
    DRAIN_PROCESS = "drain-process"


class CrashVerdict(enum.Enum):
    """Did the battery finish the whole crash drain?

    ``COMPLETE`` is the paper's designed-for case: the battery was sized
    for the worst case and every SecPB entry reached PM with its late
    steps done.  ``PARTIAL`` is the brownout case: the energy budget died
    mid-drain, a prefix persisted, and the rest is recorded as lost.
    """

    COMPLETE = "complete"
    PARTIAL = "partial"


@dataclass
class CrashReport:
    """What the battery had to do when the crash hit.

    Attributes:
        entries_drained: SecPB entries the battery moved to PM.
        late_steps_completed: scheme late steps finished on battery.
        invariants_ok: PLP tuple audit over the *persisted* stores.
        invariant_violation: first violation, when ``invariants_ok`` is
            False.
        verdict: COMPLETE, or PARTIAL when the energy budget browned out.
        unpersisted_blocks: blocks whose latest store was lost with the
            undrained SecPB entries (empty unless PARTIAL).
        energy_budget_nj: the budget the crash ran under (None =
            unconstrained, the always-sufficient battery).
        energy_spent_nj: energy the drain actually consumed.
    """

    entries_drained: int
    late_steps_completed: int
    invariants_ok: bool
    invariant_violation: Optional[str] = None
    verdict: CrashVerdict = CrashVerdict.COMPLETE
    unpersisted_blocks: List[int] = field(default_factory=list)
    energy_budget_nj: Optional[float] = None
    energy_spent_nj: float = 0.0


class SecurePersistentSystem:
    """A functional single-core system: core -> SecPB -> MC -> secure NVM.

    Args:
        scheme: which SecPB scheme coordinates metadata persistence.
        config: system configuration (SecPB geometry, watermarks).
        observer_policy: blocking or warning crash observation.
        tracer: optional :class:`repro.obs.Tracer` receiving the
            crash/recovery phase events (``crash.begin`` / ``crash.drain``
            per battery-drained entry / ``crash.brownout`` / ``crash.end``
            / ``recovery.begin`` / ``recovery.end``) keyed by the system's
            logical store/persist clock.
    """

    def __init__(
        self,
        scheme: Scheme,
        config: Optional[SystemConfig] = None,
        observer_policy: ObserverPolicy = ObserverPolicy.BLOCKING,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.scheme = scheme
        self.tracer = tracer
        if tracer is not None:
            self._late_step_names = [
                s.value for s in ALL_STEPS if s in scheme.late_steps
            ]
            self._trace_drain = tracer.bind_complete("crash.drain", "crash", LANE_CRASH)
        else:
            self._late_step_names = []
            self._trace_drain = None
        self.memory = SecureMemory(atomic=True)
        self.secpb = SecPB(self.config.secpb, scheme)
        self.observer = RecoveryObserver(self.memory, observer_policy)
        # Ground truth: latest plaintext per block that reached the PoP.
        self.expected: Dict[int, bytes] = {}
        # PLP tuple audit trail, in persist order.
        self._tuples: List[TupleState] = []
        self._tuple_by_block: Dict[int, TupleState] = {}
        self._logical_time = 0.0
        self._crashed = False
        # Blocks whose latest store was lost to a battery brownout.
        self._unpersisted: List[int] = []

    def _mark(self, name: str, args: Optional[Dict[str, object]] = None) -> None:
        """Emit a crash/recovery phase instant (no-op without a tracer)."""
        if self.tracer is not None:
            self.tracer.instant(name, "crash", LANE_CRASH, self._logical_time, args)

    # Store path ------------------------------------------------------------

    def store(self, block_addr: int, data: bytes, asid: int = 0) -> None:
        """One persistent store of a full 64 B block.

        The store reaches the PoV and PoP the moment it enters the SecPB
        (persistent hierarchy): from here on, ``data`` must be recoverable
        after any crash.
        """
        if self._crashed:
            raise RuntimeError("system has crashed; recover or rebuild it")
        if len(data) != CACHE_BLOCK_BYTES:
            raise ValueError("stores are block-granular (64 B) in this model")
        if self.secpb.full and self.secpb.lookup(block_addr) is None:
            self._drain(1)
        self.secpb.write(block_addr, plaintext=data, asid=asid)
        self.expected[block_addr] = bytes(data)
        self._logical_time += 1.0
        state = self._tuple_by_block.get(block_addr)
        if state is None or state.complete:
            state = TupleState(len(self._tuples), block_addr)
            self._tuples.append(state)
            self._tuple_by_block[block_addr] = state
        if self.secpb.above_high_watermark:
            self._drain(self.secpb.drain_targets())

    def _drain(self, count: int) -> int:
        """Drain up to ``count`` oldest entries through the MC tuple update."""
        drained = 0
        while drained < count and self.secpb.occupancy:
            entry = self.secpb.drain_oldest()
            self._persist_drained(entry)
            drained += 1
        return drained

    def _persist_drained(self, entry: DrainedEntry) -> None:
        """MC completes the memory tuple for a drained entry (steps 5-6)."""
        if entry.plaintext is None:
            raise RuntimeError(
                f"functional drain of block {entry.block_addr:#x} without data"
            )
        self.memory.persist_block(entry.block_addr, entry.plaintext)
        self._logical_time += 1.0
        state = self._tuple_by_block.get(entry.block_addr)
        if state is not None and not state.complete:
            for component in TupleComponent:
                state.persist(component, self._logical_time)

    def flush(self) -> None:
        """Drain the whole SecPB (e.g. at a clean shutdown)."""
        self._drain(self.secpb.occupancy)

    # Crash path ----------------------------------------------------------

    def crash(
        self,
        energy_budget_nj: Optional[float] = None,
        per_entry_nj: Optional[float] = None,
    ) -> CrashReport:
        """Power loss / system crash: the battery drains the SecPB.

        The battery covers the draining gap *and* the sec-sync gap: every
        SecPB entry is drained to the MC, where the scheme's late metadata
        steps complete and the block persists to PM.

        Args:
            energy_budget_nj: finite battery energy for the drain.  The
                default (None) models the paper's always-sufficient,
                worst-case-sized battery.  With a budget, each drained
                entry charges the scheme's worst-case per-entry energy
                (:func:`repro.energy.battery.per_entry_drain_energy_nj`);
                when the budget cannot cover the next entry the battery
                *browns out*: the remaining entries are lost, their blocks
                recorded in ``unpersisted_blocks``, and the report's
                verdict is PARTIAL instead of COMPLETE.
            per_entry_nj: override for the per-entry drain energy (e.g. a
                measured rather than worst-case figure); only meaningful
                with a budget.

        Raises:
            RuntimeError: when the system has already crashed — a second
                power-loss cannot re-drain an empty SecPB, and a second
                CrashReport would be meaningless.
        """
        if self._crashed:
            raise RuntimeError(
                "system already crashed: a crashed system cannot crash "
                "again; inspect the first CrashReport or rebuild"
            )
        self._crashed = True
        self._mark(
            "crash.begin",
            {
                "kind": "power",
                "occupancy": self.secpb.occupancy,
                "energy_budget_nj": energy_budget_nj,
            },
        )

        if energy_budget_nj is None:
            entries = self.secpb.drain_all()
            lost: List[SecPBEntry] = []
            spent = 0.0
        else:
            if per_entry_nj is None:
                # Imported lazily: repro.energy imports repro.core at
                # module load, so a top-level import here would cycle.
                from ..energy.battery import per_entry_drain_energy_nj

                per_entry_nj = per_entry_drain_energy_nj(
                    self.scheme, self.config
                )
            entries = []
            spent = 0.0
            while (
                self.secpb.occupancy
                and spent + per_entry_nj <= energy_budget_nj
            ):
                entries.append(self.secpb.drain_oldest())
                spent += per_entry_nj
            lost = self.secpb.discard_remaining()

        late_steps = len(entries) * len(self.scheme.late_steps)
        trace_drain = self._trace_drain
        for entry in entries:
            if trace_drain is not None:
                trace_drain(
                    self._logical_time,
                    1.0,
                    {"addr": entry.block_addr, "late_steps": self._late_step_names},
                )
            self._persist_drained(entry)

        unpersisted = sorted({e.block_addr for e in lost})
        self._unpersisted = unpersisted
        lost_set = set(unpersisted)
        # Audit only the persisted prefix: tuples of brownout-lost stores
        # are *known* incomplete and reported via unpersisted_blocks, not
        # as an invariant violation.
        ok, violation = audit_observable_state(
            [
                t
                for t in self._tuples
                if t.block_addr in self.expected
                and not (not t.complete and t.block_addr in lost_set)
            ]
        )
        verdict = CrashVerdict.PARTIAL if unpersisted else CrashVerdict.COMPLETE
        if unpersisted:
            self._mark(
                "crash.brownout",
                {"lost_blocks": len(unpersisted), "energy_spent_nj": spent},
            )
        self._mark(
            "crash.end",
            {"entries_drained": len(entries), "verdict": verdict.value},
        )
        return CrashReport(
            entries_drained=len(entries),
            late_steps_completed=late_steps,
            invariants_ok=ok,
            invariant_violation=violation,
            verdict=verdict,
            unpersisted_blocks=unpersisted,
            energy_budget_nj=energy_budget_nj,
            energy_spent_nj=spent,
        )

    def app_crash(
        self,
        asid: int,
        policy: AppCrashPolicy = AppCrashPolicy.DRAIN_ALL,
    ) -> CrashReport:
        """Application crash: the process dies but the machine stays up.

        ``DRAIN_ALL`` (the paper's choice) drains every entry regardless of
        owner; ``DRAIN_PROCESS`` drains only the crashed ASID's entries,
        preserving other processes' coalescing opportunities.

        Raises:
            RuntimeError: on a system that has already power-crashed —
                there is no machine left for a process to crash on.
        """
        if self._crashed:
            raise RuntimeError(
                "system already crashed: no process is left to app-crash"
            )
        self._mark(
            "crash.begin",
            {
                "kind": "app",
                "policy": policy.value,
                "occupancy": self.secpb.occupancy,
            },
        )
        if policy is AppCrashPolicy.DRAIN_ALL:
            entries = self.secpb.drain_all()
        else:
            entries = self.secpb.drain_process(asid)
        late_steps = len(entries) * len(self.scheme.late_steps)
        trace_drain = self._trace_drain
        for entry in entries:
            if trace_drain is not None:
                trace_drain(
                    self._logical_time,
                    1.0,
                    {"addr": entry.block_addr, "late_steps": self._late_step_names},
                )
            self._persist_drained(entry)
        ok, violation = audit_observable_state(
            [t for t in self._tuples if t.complete]
        )
        self._mark(
            "crash.end",
            {"entries_drained": len(entries), "verdict": CrashVerdict.COMPLETE.value},
        )
        return CrashReport(
            entries_drained=len(entries),
            late_steps_completed=late_steps,
            invariants_ok=ok,
            invariant_violation=violation,
        )

    # Recovery -------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Run the recovery observer over every persisted block.

        After a brownout crash the observer is told which blocks the
        battery failed to persist, so its report grades PARTIAL (all
        failures attributable to the declared losses) rather than FAILED.
        """
        gap_open = self.secpb.occupancy > 0
        self._mark("recovery.begin", {"blocks": len(self.expected)})
        report = self.observer.observe(
            self.expected, gap_open=gap_open, unpersisted=self._unpersisted
        )
        self._mark("recovery.end", {"verdict": report.verdict.value})
        return report


class GappedPersistentSystem:
    """The naive persistent hierarchy of Fig. 1(b): PoP up, SPoP at the MC.

    Data persists through a (plain, insecure) battery-backed buffer, but
    security metadata is updated only in the MC's volatile caches and
    written back lazily.  A crash between a data persist and the metadata
    writeback exposes the recoverability gap: recovery decrypts with stale
    counters and integrity verification fails.
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        self.config = config if config is not None else SystemConfig()
        self.memory = SecureMemory(atomic=False)
        self.expected: Dict[int, bytes] = {}
        self.observer = RecoveryObserver(self.memory, ObserverPolicy.WARNING)

    def store(self, block_addr: int, data: bytes) -> None:
        """A persistent store: ciphertext reaches PM, metadata stays volatile."""
        if len(data) != CACHE_BLOCK_BYTES:
            raise ValueError("stores are block-granular (64 B) in this model")
        self.memory.persist_block(block_addr, data)
        self.expected[block_addr] = bytes(data)

    def writeback_metadata(self) -> None:
        """Metadata-cache writeback: closes the gap *if it happens in time*."""
        self.memory.writeback_metadata()

    def crash(self) -> None:
        """Power loss: volatile metadata is gone; only PM survives."""
        self.memory.crash()

    def recover(self) -> RecoveryReport:
        return self.observer.observe(self.expected, gap_open=False)
