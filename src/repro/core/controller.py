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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

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


class SecPBController:
    """Prices eager steps and drains for one scheme under one config.

    Pricing returns cycles and counts nothing: the store path counts the
    stores and drains it prices, and :meth:`metadata_counts` turns those
    counts into BMT root updates and MAC generations.

    Args:
        config: system configuration (Table I).
        scheme: the persistency scheme being run.
        metadata_caches: MC-side CTR$/MAC$/BMT$ model (shared with drains).
        bmt_levels_fn: returns the number of hash levels a given page's
            BMT update must recompute — constant-height by default, or a
            Merkle-forest hook for the Fig. 9 BMF study.
        calibration: free timing constants.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheme: Scheme,
        metadata_caches: MetadataCaches,
        bmt_levels_fn: Optional[Callable[[int], int]] = None,
        calibration: Optional[TimingCalibration] = None,
        value_independent_coalescing: bool = True,
        bmt_engine: Optional[BusyResource] = None,
        mac_engine: Optional[BusyResource] = None,
    ):
        """``value_independent_coalescing`` enables the Sec. IV-A
        optimization (counter/OTP/BMT root once per residency).  Disabling
        it re-runs those steps on *every* store — the naive design the
        paper argues against — and exists for the ablation study.

        ``bmt_engine``/``mac_engine`` may be injected so multiple cores'
        controllers contend on the shared MC-side engines (the multi-core
        simulator does this); by default each controller gets private
        engines, which is exact for the single-core configuration.
        """
        self.config = config
        self.scheme = scheme
        self.mdc = metadata_caches
        self.calibration = calibration if calibration is not None else TimingCalibration()
        self.value_independent_coalescing = value_independent_coalescing
        self._bmt_levels_fn = bmt_levels_fn
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
        # BMT update service is constant unless a Merkle-forest hook
        # supplies per-page heights (the Fig. 9 BMF study).
        self._bmt_service_const = (
            None
            if bmt_levels_fn is not None
            else config.security.bmt_levels * self._hash_cycles
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
        if not self._early_bmt and bmt_levels_fn is None:
            drain_const += config.security.bmt_levels * cal.mc_hash_initiation_cycles
        if not self._early_ciphertext:
            drain_const += cal.xor_cycles
        if not self._early_mac:
            drain_const += cal.mc_hash_initiation_cycles
        self._drain_const = drain_const
        self._drain_bmt_dynamic = not self._early_bmt and bmt_levels_fn is not None
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
            ctr_latency = self._access_counter(block_addr // 64)
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
                service = self._bmt_levels_fn(block_addr // 64) * self._hash_cycles
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
                ctr_latency = self._access_counter(entry.block_addr // 64)
                counter_ready = ctr_latency + self._counter_increment
            otp_done = counter_ready
            if self._early_otp:
                otp_done = counter_ready + self._aes_cycles
            bmt_done = counter_ready
            if self._early_bmt:
                service = self._bmt_service_const
                if service is None:
                    service = self._bmt_levels_fn(entry.block_addr // 64) * self._hash_cycles
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
            self._access_counter(block_addr // 64)
        if self._drain_bmt_dynamic:
            service += self._bmt_levels_fn(block_addr // 64) * self._mc_hash_initiation
        return service
