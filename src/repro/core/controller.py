"""SecPB controller: the FSM that prices security-metadata work.

The controller owns the *timing* of the mechanism in Sec. IV-B: when a
store enters the SecPB, which eager steps run, how long until the buffer
raises the **unblocking signal** letting the store buffer send the next
store, and how expensive a drain is for the memory controller.

Latency structure (per scheme):

* **new-entry stores** pay the scheme's early *value-independent* steps —
  counter fetch+increment (CTR$ hit or miss), OTP generation (AES), BMT
  leaf-to-root update (``levels x hash``) — once per residency (Sec. IV-A
  optimization).  OTP and BMT are independent after the counter and run in
  parallel; the BMT engine is a single-in-flight resource (Sec. VI-B).
* **every store** (new or coalesced) pays the early *value-dependent*
  steps: ciphertext XOR (1 cycle) and MAC (40 cycles) as applicable.
* **drains** hand the block to the MC, where any late steps execute on the
  pipelined MC crypto engine — off the store's critical path, but a source
  of backpressure when drains cannot keep up (COBCM's "backflow").

The simulator's store path prices through :meth:`SecPBController.compile_pricing`,
built once per run; the ``price_*`` methods are the reference it equals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Tuple

from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BusyResource
from .schemes import MetadataStep, Scheme
from .secpb import SecPBEntry


@dataclass(frozen=True)
class TimingCalibration:
    """Model constants not fixed by Table I.

    These capture microarchitectural effects the paper describes
    qualitatively; they are the only free parameters of the timing model
    and are shared across all schemes and baselines (so they cancel in
    relative comparisons to first order).
    """

    cpi_base: float = 0.5
    """Base cycles per non-memory instruction (a ~2-wide core)."""

    load_blocking_fraction: float = 0.35
    """Fraction of a load's miss latency the OOO window fails to hide."""

    xor_cycles: int = 1
    """Ciphertext generation: a bitwise XOR (Sec. IV, design CM)."""

    counter_increment_cycles: int = 1
    """Counter bump once the counter block is at hand."""

    drain_transfer_cycles: int = 2
    """SecPB read + handoff of one 64 B block toward the WPQ (pipelined)."""

    mc_hash_initiation_cycles: int = 1
    """Pipelined MC hash engine: initiation interval per SHA operation.

    Post-drain metadata work has no ordering constraint (the observer only
    sees post-drain state), so the MC engines pipeline deeply; only the
    initiation interval costs drain bandwidth."""

    mc_aes_initiation_cycles: int = 1
    """Pipelined MC AES engine: initiation interval per OTP."""

    mac_pipeline_initiation_cycles: int = 24
    """SecPB-side MAC engine occupancy per *coalesced* store (NoGap).

    The paper's M-vs-NoGap results (e.g. povray's 51.6% improvement from
    delaying MACs, Sec. VI-B) require NoGap to pay a full MAC per store;
    MAC generation overlaps with *other entries'* BMT updates (separate
    engines) but the MAC engine itself is not pipelined."""

    mc_counter_fetch_cycles: int = 2
    """Counter access on the drain path (prefetched; latency hidden)."""

    secpb_double_access_cycles: int = 2
    """OBCM's extra SecPB access to check the counter valid bit
    (Sec. VI-B: 'the SecPB access latency being incurred twice')."""

    def __post_init__(self) -> None:
        """Reject constants no machine has.

        Every cycle constant and ``cpi_base`` must be a non-negative
        number, and ``load_blocking_fraction`` must lie in [0, 1].  The
        timing model relies on it: a negative drain or engine service
        would let completions run backwards, which the store path's FIFO
        drain and acceptance queues do not allow.
        """
        if not 0.0 <= self.cpi_base < math.inf:
            raise ValueError(f"cpi_base must be a non-negative number, got {self.cpi_base!r}")
        if not 0.0 <= self.load_blocking_fraction <= 1.0:
            raise ValueError(
                "load_blocking_fraction must be in [0, 1], "
                f"got {self.load_blocking_fraction!r}"
            )
        for spec in fields(self):
            if spec.name.endswith("_cycles"):
                value = getattr(self, spec.name)
                if not 0 <= value < math.inf:
                    raise ValueError(
                        f"{spec.name} must be a non-negative cycle count, got {value!r}"
                    )


class CompiledPricing(NamedTuple):
    """One run's pricing, compiled from the scheme by
    :meth:`SecPBController.compile_pricing`.

    ``new_entry(accept_start, block_addr)`` and ``coalesced(accept_start,
    block_addr)`` return the cycles until the unblocking signal for a
    store that allocates an entry and for one that coalesces into it,
    bit for bit what :meth:`~SecPBController.price_new_entry` and
    :meth:`~SecPBController.price_coalesced_store` return; either is
    ``None`` when that store runs no early step (0 cycles).

    A drain's MC service is ``drain_service``, plus
    ``drain_levels(block_addr) * drain_hash_cycles`` when the BMT update is
    late and its height is per page, under a BMF cut (``drain_levels`` is
    ``None`` otherwise).  With the counter step late, a drain also accesses
    the CTR$ through ``drain_counter(block_addr)`` and does not wait for it
    (``None`` when the counter step is early).  Together that is
    :meth:`~SecPBController.price_drain`.
    """

    new_entry: Optional[Callable[[float, int], float]]
    coalesced: Optional[Callable[[float, int], float]]
    drain_service: float
    drain_counter: Optional[Callable[[int], int]]
    drain_levels: Optional[Callable[[int], int]]
    drain_hash_cycles: int


class SecPBController:
    """Prices eager steps and drains for one scheme under one config.

    Pricing returns cycles and counts nothing: the store path counts the
    stores and drains it prices, and :meth:`metadata_counts` turns those
    counts into BMT root updates and MAC generations.

    Args:
        config: system configuration (Table I).  Its
            ``secpb.value_independent_coalescing`` switches the Sec. IV-A
            optimization (off for the ablation: the value-independent
            steps re-run on every store).
        scheme: the persistency scheme being run.
        metadata_caches: MC-side CTR$/MAC$/BMT$ model (shared with drains).
            Under a BMF cut its forest prices each BMT update
            (:meth:`MetadataCaches.bmt_levels`); otherwise every update
            recomputes the configured ``bmt_levels``.
        calibration: free timing constants.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        metadata_caches: MetadataCaches,
        calibration: Optional[TimingCalibration] = None,
        bmt_engine: Optional[BusyResource] = None,
        mac_engine: Optional[BusyResource] = None,
    ):
        """``bmt_engine``/``mac_engine`` may be injected so multiple cores'
        controllers contend on the shared MC-side engines (the multi-core
        simulator does this); by default each controller gets private
        engines, which is exact for the single-core configuration.
        """
        self.config = config
        self.scheme = scheme
        self.mdc = metadata_caches
        self.calibration = calibration if calibration is not None else TimingCalibration()
        self.value_independent_coalescing = config.secpb.value_independent_coalescing
        # Per-block BMT heights exist only under a BMF cut; without one
        # every update recomputes the configured height, folded below.
        forest = metadata_caches.forest is not None
        self._bmt_levels = metadata_caches.bmt_levels if forest else None
        self.bmt_engine = bmt_engine if bmt_engine is not None else BusyResource("bmt-engine")
        self.mac_engine = mac_engine if mac_engine is not None else BusyResource("mac-engine")
        self._hash_cycles = config.security.mac_latency_cycles
        self._aes_cycles = config.security.aes_latency_cycles
        self._secpb_access = config.secpb.access_cycles

        # Hot-path precomputation: the scheme and calibration are fixed
        # for the controller's lifetime, so resolve the early/late step
        # split into booleans and fold every scheme-constant latency term
        # once here instead of re-deriving them on every priced store.
        # The dynamic parts — counter-cache accesses (stateful) and engine
        # requests — remain per-call, so every priced value is
        # bit-identical to the unoptimized computation.
        cal = self.calibration
        self._early_counter = scheme.is_early(MetadataStep.COUNTER)
        self._early_otp = scheme.is_early(MetadataStep.OTP)
        self._early_bmt = scheme.is_early(MetadataStep.BMT_ROOT)
        self._early_ciphertext = scheme.is_early(MetadataStep.CIPHERTEXT)
        self._early_mac = scheme.is_early(MetadataStep.MAC)
        self._counter_increment = cal.counter_increment_cycles
        self._xor_cycles = cal.xor_cycles
        self._mac_initiation = cal.mac_pipeline_initiation_cycles
        self._double_access = cal.secpb_double_access_cycles
        self._mc_hash_initiation = cal.mc_hash_initiation_cycles
        self._access_counter = self.mdc.access_counter
        # BMT update service is constant unless a Merkle forest prices
        # it per page (the Fig. 9 BMF study).
        self._bmt_service_const = (
            None if forest else config.security.bmt_levels * self._hash_cycles
        )
        # Drain service: the block transfer plus every scheme-constant
        # late-step initiation cost, pre-summed (integer cycle counts, so
        # the fold is exact).  Only a dynamic BMT height stays per-call.
        drain_const = float(cal.drain_transfer_cycles)
        if not self._early_counter:
            drain_const += cal.mc_counter_fetch_cycles
            drain_const += cal.counter_increment_cycles
        if not self._early_otp:
            drain_const += cal.mc_aes_initiation_cycles
        if not self._early_bmt and not forest:
            drain_const += config.security.bmt_levels * cal.mc_hash_initiation_cycles
        if not self._early_ciphertext:
            drain_const += cal.xor_cycles
        if not self._early_mac:
            drain_const += cal.mc_hash_initiation_cycles
        self._drain_const = drain_const
        self._drain_bmt_dynamic = not self._early_bmt and forest
        # Fully lazy schemes (COBCM) run no early step at all: every
        # priced store degenerates to "latency 0" — worth a dedicated
        # early-out on the acceptance path.
        self._no_early_steps = not (
            self._early_counter
            or self._early_otp
            or self._early_bmt
            or self._early_ciphertext
            or self._early_mac
        )

    def metadata_counts(
        self, new_entries: int, coalesced: int, drains: int
    ) -> Tuple[int, int]:
        """BMT root updates and MAC generations behind a path's counts.

        ``new_entries`` and ``coalesced`` count the stores priced by
        :meth:`price_new_entry` and :meth:`price_coalesced_store`;
        ``drains`` counts the entries priced by :meth:`price_drain`
        (watermark and forced drains, and remote-read flushes).  A step
        runs once per priced event of its side of the early/late split:

        * an early BMT root update runs once per new entry, and on every
          coalesced store too without the Sec. IV-A optimization; a late
          one runs once per drain;
        * an early MAC is generated on every priced store; a late one
          once per drain.

        Returns:
            (bmt_root_updates, mac_generations)
        """
        if self._early_bmt:
            bmt_updates = new_entries
            if not self.value_independent_coalescing:
                bmt_updates += coalesced
        else:
            bmt_updates = drains
        mac_generations = new_entries + coalesced if self._early_mac else drains
        return bmt_updates, mac_generations

    # Compiled pricing ---------------------------------------------------

    def compile_pricing(self) -> CompiledPricing:
        """This controller's pricing as closures the store path calls.

        Built once per run.  The scheme's early steps are resolved here,
        scheme-constant terms are folded, and the closures touch no
        :class:`~repro.core.secpb.SecPBEntry`: they return exactly what
        the ``price_*`` methods return for the same engine state.  They
        read and write the BMT and MAC engines' ``free_at`` in place, so
        cores that share the engines (:mod:`repro.core.multicore`) keep
        contending on them.

        Every early step needs the counter (Fig. 4), so a scheme with any
        early step runs it first.  ``max(latency, otp_done, bmt_done)`` of
        the methods folds to ``counter_ready + extra`` then one compare:
        of the OTP's AES and OBCM's double SecPB access, exactly one
        applies, and adding a non-negative constant never lowers a float.
        """
        new_entry = coalesced = None
        if not self._no_early_steps:
            aes_extra = max(0, self._aes_cycles) if self._early_otp else 0
            new_entry = self._compile_value_independent(
                aes_extra if self._early_otp else max(0, self._double_access),
                self._hash_cycles,
            )
            if not self.value_independent_coalescing:
                coalesced = self._compile_value_independent(aes_extra, self._mac_initiation)
            elif self._early_mac or self._early_ciphertext:
                coalesced = self._compile_value_dependent()
        return CompiledPricing(
            new_entry,
            coalesced,
            self._drain_const,
            None if self._early_counter else self._access_counter,
            self._bmt_levels if self._drain_bmt_dynamic else None,
            self.calibration.mc_hash_initiation_cycles,
        )

    def _compile_value_independent(
        self, extra: int, mac_cycles: int
    ) -> Callable[[float, int], float]:
        """Counter, then {OTP or double access || BMT}, then the
        value-dependent tail: :meth:`price_new_entry`, and the coalesced
        store without the Sec. IV-A optimization."""
        access_counter = self._access_counter
        increment = float(self._counter_increment)
        early_bmt = self._early_bmt
        bmt_engine = self.bmt_engine
        bmt_service = self._bmt_service_const
        bmt_levels = self._bmt_levels
        hash_cycles = self._hash_cycles
        xor_cycles = self._xor_cycles if self._early_ciphertext else None
        mac_engine = self.mac_engine if self._early_mac else None

        def price(now: float, block_addr: int) -> float:
            counter_ready = access_counter(block_addr) + increment
            latency = counter_ready + extra
            if early_bmt:
                # The single-in-flight BMT engine (BusyResource.request).
                start = now + counter_ready
                free_at = bmt_engine.free_at
                if free_at > start:
                    start = free_at
                if bmt_service is None:
                    start += bmt_levels(block_addr) * hash_cycles
                else:
                    start += bmt_service
                bmt_engine.free_at = start
                bmt_done = start - now
                if bmt_done > latency:
                    latency = bmt_done
            if xor_cycles is not None:
                latency += xor_cycles
            if mac_engine is not None:
                start = now + latency
                free_at = mac_engine.free_at
                if free_at > start:
                    start = free_at
                start += mac_cycles
                mac_engine.free_at = start
                latency = start - now
            return latency

        return price

    def _compile_value_dependent(self) -> Callable[[float, int], float]:
        """The value-dependent steps alone: :meth:`price_coalesced_store`
        with the Sec. IV-A optimization."""
        base = 0.0
        if self._early_ciphertext:
            base += self._xor_cycles
        mac_engine = self.mac_engine if self._early_mac else None
        mac_initiation = self._mac_initiation

        def price(now: float, block_addr: int) -> float:
            if mac_engine is None:
                return base
            # Pipelined: one initiation interval on the MAC engine.
            start = now + base
            free_at = mac_engine.free_at
            if free_at > start:
                start = free_at
            start += mac_initiation
            mac_engine.free_at = start
            return start - now

        return price

    # Eager path ---------------------------------------------------------

    def price_new_entry(self, now: float, block_addr: int, entry: SecPBEntry) -> float:
        """Cycles until the SecPB unblocks after allocating a new entry.

        Runs the scheme's early steps for a first store to a block:
        value-independent steps once (counter -> {OTP || BMT}), then the
        value-dependent steps (ciphertext XOR -> MAC).

        The base SecPB array access is pipelined (one store per cycle can
        stream into the buffer); only the *metadata* work occupies the
        acceptance path and delays the unblocking signal.
        """
        if self._no_early_steps:
            return 0.0
        # Field letters ("C", "O", "B", "Dc", "M") follow the Fig. 5 field
        # table (see repro.core.secpb._FIELD_FOR_STEP).
        latency = 0.0
        valid = entry.valid

        counter_ready = latency
        if self._early_counter:
            ctr_latency = self._access_counter(block_addr)
            counter_ready = latency + ctr_latency + self._counter_increment
            latency = counter_ready
            valid["C"] = True
            if not self._early_otp:
                # OBCM: counter is the only early step, and unblocking the
                # L1D requires a second SecPB access to check its valid bit.
                latency += self._double_access

        otp_done = counter_ready
        if self._early_otp:
            otp_done = counter_ready + self._aes_cycles
            valid["O"] = True

        bmt_done = counter_ready
        if self._early_bmt:
            service = self._bmt_service_const
            if service is None:
                service = self._bmt_levels(block_addr) * self._hash_cycles
            _, completion = self.bmt_engine.request(now + counter_ready, service)
            bmt_done = completion - now
            valid["B"] = True

        # OTP and BMT proceed in parallel; both gate the value-dependent tail.
        latency = max(latency, otp_done, bmt_done)

        if self._early_ciphertext:
            latency += self._xor_cycles
            valid["Dc"] = True

        if self._early_mac:
            _, completion = self.mac_engine.request(now + latency, self._hash_cycles)
            latency = completion - now
            valid["M"] = True

        return latency

    def price_coalesced_store(self, now: float, entry: SecPBEntry) -> float:
        """Cycles until the SecPB unblocks after a store hit an existing entry.

        Value-independent metadata is already valid (Sec. IV-A); only the
        value-dependent early steps re-run.  The base array write is
        pipelined and does not occupy the acceptance path.

        With the coalescing optimization disabled (ablation), the
        value-independent steps re-run on every store as well.
        """
        if self._no_early_steps:
            return 0.0
        latency = 0.0
        if not self.value_independent_coalescing:
            counter_ready = 0.0
            if self._early_counter:
                ctr_latency = self._access_counter(entry.block_addr)
                counter_ready = ctr_latency + self._counter_increment
            otp_done = counter_ready
            if self._early_otp:
                otp_done = counter_ready + self._aes_cycles
            bmt_done = counter_ready
            if self._early_bmt:
                service = self._bmt_service_const
                if service is None:
                    service = self._bmt_levels(entry.block_addr) * self._hash_cycles
                _, completion = self.bmt_engine.request(now + counter_ready, service)
                bmt_done = completion - now
            latency = max(counter_ready, otp_done, bmt_done)
        valid = entry.valid
        if self._early_ciphertext:
            latency += self._xor_cycles
            valid["Dc"] = True
        if self._early_mac:
            # Pipelined: occupy the engine for one initiation interval; the
            # remaining MAC latency overlaps with younger stores.
            _, completion = self.mac_engine.request(now + latency, self._mac_initiation)
            latency = completion - now
            valid["M"] = True
        return latency

    # Drain path -----------------------------------------------------------

    def price_drain(self, block_addr: int) -> float:
        """MC-side service time for draining one entry (normal operation).

        The block transfer plus any *late* metadata steps, executed on the
        pipelined MC engines (initiation-interval costs, not full
        latencies, since drains have no ordering constraint — the observer
        only sees post-drain state, Sec. III-B).
        """
        service = self._drain_const
        if not self._early_counter:
            # Track cache contents (for stats) but charge the pipelined
            # fetch cost (already folded into the constant): drains have
            # no ordering constraint, so misses overlap with other work.
            self._access_counter(block_addr)
        if self._drain_bmt_dynamic:
            service += self._bmt_levels(block_addr) * self._mc_hash_initiation
        return service
