"""The single-core trace loop and the secure-persistency timing model.

:class:`TraceSimulator` is the one single-core trace loop; each timing
model (SecPB here, SP in :mod:`repro.baselines.strict`, flush-based
persistency in :mod:`repro.persistency.flush`) supplies only its store
mechanism, as a :class:`StorePath`.

:class:`SecurePersistencySimulator` runs a memory-reference trace through a
core + SecPB + cache hierarchy + memory-controller model and reports
cycles, IPC and the paper's diagnostic statistics (PPTI, NWPE, BMT root
updates).

Timing model (validated against the paper's own analytic check in
Sec. VI-B):

* the core retires non-memory instructions at ``1 / cpi_base`` IPC;
* loads charge their hierarchy latency, discounted by the fraction an OOO
  window hides;
* stores enter the L1D and SecPB in parallel.  SecPB acceptance is
  *serialized*: the buffer accepts the next store only after raising the
  unblocking signal for the previous one, i.e. after the scheme's early
  metadata steps complete (:class:`~repro.core.controller.SecPBController`).
  The core itself only stalls when the store buffer fills — short bursts
  are absorbed, sustained rates are throughput-limited by the acceptance
  service rate, which is exactly how the eager schemes lose performance;
* the SecPB drains to the MC at the high watermark until the low
  watermark.  A draining entry frees its slot only when the MC finishes
  its (late-step) service, so lazy schemes can fill the buffer and stall
  new allocations — the "backflow" the paper reports for COBCM.

Passing ``scheme=None`` runs the insecure BBB baseline [4]: same buffer,
same watermarks, no security metadata anywhere.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import islice
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from ..obs.tracing import LANE_DRAIN, LANE_STALLS, LANE_STORES, Tracer
from ..security.metadata_cache import MetadataCaches
from ..sim.config import SystemConfig
from ..sim.engine import BoundedPipeline, BusyResource
from ..sim.hierarchy import MemoryHierarchy, front_end, level_passes
from ..sim.stats import SimulationResult, StatsCollector
from ..workloads.trace import Trace
from .controller import CompiledPricing, SecPBController, TimingCalibration
from .schemes import ALL_STEPS, COBCM, MetadataStep, Scheme
from .secpb import SecPB

BBB_SCHEME_NAME = "bbb"


class StorePath(NamedTuple):
    """One run's store mechanism, as :meth:`TraceSimulator.run` drives it.

    ``store(clock, block_addr)`` prices each store and returns the clock
    at which the core starts its next op.  The store's L1D access is made
    by the trace's hierarchy front end, and the store never waits for its
    latency.

    A path counts its per-store events (writes, allocations, drains, BMT
    and MAC work, flushed lines) in closure locals, not in the run's
    :class:`~repro.sim.stats.StatsCollector`.  ``sync()`` adds the counts
    kept since its last call to the collector, skipping zeros, so the
    collector holds a path's counts only after ``sync()``.  The run loop
    calls it just before the warmup snapshot and once more after
    ``finish``, before the subtract; the warmup exclusion then sees every
    count.  Float sums (acceptance and backflow cycles) stay per-event
    adds, whose order the goldens pin.

    ``mdc`` holds the model's metadata caches (``None`` without security
    metadata); PM loads verify through it when speculative verification
    is off.  ``finish(clock)`` runs after the last op, and ``report()``
    builds the result's stats after warmup exclusion (default
    ``stats.as_dict()``).

    A SecPB path also exposes what Sec. IV-C's coherence needs
    (:mod:`repro.core.multicore`).  ``secpb`` is the buffer whose
    residency is the core's ownership; a remote write removes the block
    from it and calls the new owner's ``store`` with ``True`` as a third
    argument (the entry migrated).  ``flush(now, block_addr)`` serves a
    remote read.
    """

    store: Callable[..., float]
    sync: Callable[[], None]
    mdc: Optional[MetadataCaches] = None
    finish: Optional[Callable[[float], float]] = None
    report: Optional[Callable[[], Dict[str, float]]] = None
    secpb: Optional[SecPB] = None
    flush: Optional[Callable[[float, int], None]] = None


def load_verification_cycles(
    config: SystemConfig, mdc: Optional[MetadataCaches]
) -> int:
    """Cycles a PM load waits for OTP regeneration and its MAC check.

    Speculative integrity verification (Table I / PoisonIvy [33]) hides
    load-side verification entirely; without it, PM fills of every model
    with security metadata (``mdc`` not ``None``) pay both before use, on
    top of fetching their counter.
    """
    if mdc is None or config.security.speculative_verification:
        return 0
    return config.security.aes_latency_cycles + config.security.mac_latency_cycles


_END = -1
"""A schedule event: the trace ends."""
_WARMUP = -2
"""A schedule event: the measured region starts."""
_VERIFY = -3
"""A schedule event at or below this is a verifying PM load, of the block
``_VERIFY - event``; a store's event is its block address, which
:class:`~repro.workloads.trace.Trace` keeps non-negative."""


class LoadSchedule(NamedTuple):
    """A trace's loads folded into clock addends (see :func:`load_schedule`).

    Entry ``i`` is ``addends[i]``, the clock addends of the ops since the
    previous event in op order, then ``events[i]``: a store's block
    address, a verifying load (``_VERIFY - block_addr``), the warmup
    boundary (``_WARMUP``) or the end (``_END``, always last).  Shared by
    every run that reads it, so nothing here may be mutated.
    """

    addends: List[Tuple[float, ...]]
    events: List[int]
    instructions: int
    warmup_instructions: int


def load_schedule(
    trace: Trace,
    config: SystemConfig,
    calibration: TimingCalibration,
    warmup_ops: int,
    verify: bool,
) -> LoadSchedule:
    """The load schedule :meth:`TraceSimulator.run` walks, built at most once.

    Memoized on the trace per geometry, warmup, ``cpi_base``,
    ``load_blocking_fraction`` and ``verify``: nothing else a load costs
    depends on the model, so BBB, every scheme, SecPB size and BMF cut, SP
    and flush share one schedule.

    Args:
        trace: the memory-reference trace.
        config: system configuration; only
            :meth:`~repro.sim.hierarchy.MemoryHierarchy.geometry` matters.
        calibration: supplies ``cpi_base`` and ``load_blocking_fraction``.
        warmup_ops: ops before the measured region (``0``: none).
        verify: whether PM loads verify (non-speculative integrity
            verification); each one is then an event, not an addend.
    """
    key = (
        MemoryHierarchy.geometry(config),
        warmup_ops,
        calibration.cpi_base,
        calibration.load_blocking_fraction,
        verify,
    )
    memo = trace.__dict__.setdefault("_load_schedules", {})
    schedule = memo.get(key)
    if schedule is None:
        schedule = memo[key] = _build_load_schedule(
            trace, config, calibration, warmup_ops, verify
        )
    return schedule


def _build_load_schedule(
    trace: Trace,
    config: SystemConfig,
    calibration: TimingCalibration,
    warmup_ops: int,
    verify: bool,
) -> LoadSchedule:
    """Fold ``trace``'s ops into per-event addend tuples, in op order.

    An op adds ``gap * cpi_base`` to the clock, dropped when it is
    ``0.0``: the clock starts at ``+0.0`` and never falls, so adding zero
    leaves it as it was.  A load then adds its blended latency, one float
    per distinct latency.  The run adds each addend on its own, in this
    order, so its clock is the op-by-op loop's, bit for bit.
    """
    stores, addrs, gaps = trace.columns()
    passes = level_passes(trace, config)
    cpi_base = calibration.cpi_base
    blocking = calibration.load_blocking_fraction
    l1_hit = config.l1.access_cycles
    memory_fill = config.memory_round_trip_cycles
    # Per distinct gap: its addend, or none when it is 0.0.
    gap_addend = {}
    for gap in dict.fromkeys(gaps):
        addend = gap * cpi_base
        gap_addend[gap] = (addend,) if addend != 0.0 else ()
    # Per hierarchy outcome: whether a load verifies, else its addend.
    load_verifies = [verify and latency >= memory_fill for latency in passes.latency]
    load_addend = [
        latency if latency <= l1_hit else l1_hit + blocking * (latency - l1_hit)
        for latency in passes.latency
    ]

    addends: List[Tuple[float, ...]] = []
    events: List[int] = []
    add_entry, add_event = addends.append, events.append
    # Equal tuples are stored once: a run of stores with equal gaps, say,
    # holds one addend tuple.
    interned = {entry: entry for entry in gap_addend.values()}
    pending: List[float] = []
    add, extend = pending.append, pending.extend

    def cut(event: int) -> None:
        entry = tuple(pending)
        add_entry(interned.setdefault(entry, entry))
        add_event(event)
        pending.clear()

    ops = zip(stores, addrs, gaps, passes.outcome)
    # The warmup's ops, the boundary, then the measured region's ops.
    for region in (islice(ops, warmup_ops), ops):
        for is_store, block_addr, gap, outcome in region:
            if is_store and not pending:
                # Right after an event: the store's own gap alone.
                add_entry(gap_addend[gap])
                add_event(block_addr)
                continue
            extend(gap_addend[gap])
            if is_store:
                cut(block_addr)
            elif load_verifies[outcome]:
                cut(_VERIFY - block_addr)
            else:
                add(load_addend[outcome])
        if warmup_ops and region is not ops:
            cut(_WARMUP)
    cut(_END)

    warmup_instructions = sum(islice(gaps, warmup_ops)) + warmup_ops
    return LoadSchedule(addends, events, sum(gaps) + len(gaps), warmup_instructions)


class TraceSimulator:
    """The single-core trace loop every timing model runs on.

    A subclass sets ``config``, ``calibration`` and ``scheme_name``, and
    builds a fresh :class:`StorePath` per run in ``_store_path``.  The
    cache hierarchy is not part of a run: loads are folded into the
    trace's :func:`load_schedule`, and the hierarchy's counters come from
    its :func:`~repro.sim.hierarchy.front_end`, replayed with
    ``persist_region`` (False: volatile caches).  Both are shared by
    every run of the same trace and geometry.
    """

    config: SystemConfig
    calibration: TimingCalibration
    persist_region = True

    @property
    def scheme_name(self) -> str:
        raise NotImplementedError

    def _store_path(self, stats: StatsCollector) -> StorePath:
        raise NotImplementedError

    def run(self, trace: Trace, warmup_frac: float = 0.0) -> SimulationResult:
        """Simulate one trace; returns timing and statistics.

        The hierarchy's counters come from the trace's front end (built
        on first use), merged after the warmup exclusion; every other
        counter is this run's own.

        Args:
            trace: the memory-reference trace.
            warmup_frac: fraction of the trace treated as warmup — state
                (caches, buffers, metadata caches) is built but its cycles,
                instructions and counters are excluded from the reported
                result, mirroring the paper's fast-forward to
                representative regions.
        """
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        config = self.config
        cal = self.calibration
        warmup_ops = int(len(trace) * warmup_frac)
        front = front_end(trace, config, self.persist_region, warmup_ops)
        stats = StatsCollector()
        path = self._store_path(stats)

        l1_hit_cycles = config.l1.access_cycles
        blocking = cal.load_blocking_fraction
        mdc = path.mdc
        verify_load_cycles = load_verification_cycles(config, mdc)
        # A verifying load's latency is the memory round trip: no latency
        # exceeds it, since no level's access latency is negative.
        memory_fill_cycles = config.memory_round_trip_cycles
        count_load_verification = stats.counter("verify.load_verifications")
        schedule = load_schedule(trace, config, cal, warmup_ops, verify_load_cycles > 0)

        clock = 0.0
        warmup_clock = 0.0
        warmup_stats: Dict[str, float] = {}

        # Hot-loop bindings: the per-store path resolves these names once
        # per run instead of chasing attributes per store.
        store = path.store
        sync = path.sync
        mdc_access_counter = mdc.access_counter if mdc is not None else None

        for addends, event in zip(schedule.addends, schedule.events):
            for addend in addends:
                clock += addend
            if event >= 0:
                clock = store(clock, event)
            elif event <= _VERIFY:
                # Non-speculative integrity verification (ablation of the
                # Table I assumption): data fetched from PM cannot be used
                # until its counter is fetched, the OTP is regenerated and
                # the MAC checked.
                latency = memory_fill_cycles
                latency += mdc_access_counter(_VERIFY - event)
                latency += verify_load_cycles
                count_load_verification()
                if latency <= l1_hit_cycles:
                    clock += latency
                else:
                    clock += l1_hit_cycles + blocking * (latency - l1_hit_cycles)
            elif event == _WARMUP:
                warmup_clock = clock
                sync()
                warmup_stats = stats.snapshot()

        if path.finish is not None:
            clock = path.finish(clock)
        sync()
        if warmup_ops:
            # Exclude warmup-region counts so every counter — and PPTI /
            # NWPE / the Fig. 8 update ratios derived from them — covers
            # only the measured region.  State (caches, buffers, metadata
            # caches) keeps its warmed contents.
            stats.subtract(warmup_stats)
        stats.merge(front.stats)
        instructions = schedule.instructions - schedule.warmup_instructions
        stats.set("instructions", instructions)
        result_stats = path.report() if path.report is not None else stats.as_dict()
        return SimulationResult(
            scheme=self.scheme_name,
            benchmark=trace.name,
            cycles=clock - warmup_clock,
            instructions=instructions,
            stats=result_stats,
        )


class SecurePersistencySimulator(TraceSimulator):
    """One configured (scheme, system) pair, runnable over traces.

    Args:
        config: Table I system configuration, with the design options
            (``secpb.value_independent_coalescing``, ``security.bmf_cut``).
        scheme: one of the six SecPB schemes, or ``None`` for the insecure
            BBB baseline.
        calibration: free timing constants (shared across schemes).
        tracer: optional :class:`repro.obs.Tracer` receiving the store
            lifecycle (accept/coalesce/drain with the scheme's early/late
            step split, backflow and store-buffer stalls) keyed by
            simulated cycles.  ``None`` (the default) binds no hooks:
            each hot-loop site degenerates to an ``is not None`` test on
            a local, and a traced run's timing and statistics are
            byte-identical to an untraced one.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: Optional[Scheme] = None,
        calibration: Optional[TimingCalibration] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        self.scheme = scheme
        self.calibration = calibration if calibration is not None else TimingCalibration()
        self.tracer = tracer

    @property
    def scheme_name(self) -> str:
        return self.scheme.name if self.scheme is not None else BBB_SCHEME_NAME

    def _store_path(
        self,
        stats: StatsCollector,
        mdc: Optional[MetadataCaches] = None,
        bmt_engine: Optional[BusyResource] = None,
        mac_engine: Optional[BusyResource] = None,
    ) -> StorePath:
        """SecPB acceptance, watermark drains and backflow for one run.

        The multi-core model builds one path per core and passes the
        metadata caches and the BMT/MAC engines that live at the shared
        MC; by default the path has its own, so every run starts from
        empty metadata caches and an empty BMF root cache.

        A store calls nothing of the SecPB but :meth:`SecPB.drain_targets`
        (at the high watermark and in a backflow wait), nothing of the
        engines or the stats, and at most one compiled pricing closure
        (:meth:`SecPBController.compile_pricing`); a CTR$ access calls the
        metadata caches.  Residency is the keys of the SecPB's FIFO map
        (no :class:`~repro.core.secpb.SecPBEntry` per residency), and the
        in-flight drains' completions are a FIFO ``deque``: each drain
        starts no earlier than the drain engine frees, so they never
        decrease.
        """
        config = self.config
        cal = self.calibration
        scheme = self.scheme
        secure = scheme is not None

        if secure:
            if mdc is None:
                mdc = MetadataCaches(config, stats)
            controller = SecPBController(
                config,
                scheme,
                mdc,
                calibration=cal,
                bmt_engine=bmt_engine,
                mac_engine=mac_engine,
            )
            pricing = controller.compile_pricing()
            secpb = SecPB(config.secpb, scheme, stats)
        else:
            mdc = None
            controller = None
            # The BBB persist buffer has the same geometry, no metadata
            # (COBCM is structure-only here; its fields go unused).
            pricing = CompiledPricing(
                None, None, float(cal.drain_transfer_cycles), None, None, 0
            )
            secpb = SecPB(config.secpb, COBCM, stats)
        price_new_entry, price_coalesced = pricing.new_entry, pricing.coalesced
        drain_service = pricing.drain_service
        drain_counter = pricing.drain_counter
        drain_levels = pricing.drain_levels
        drain_hash_cycles = pricing.drain_hash_cycles
        # Sec. IV-C-c: a migrated entry brings its value-independent
        # metadata; its counter is valid exactly when the scheme runs the
        # counter step early, and it is then priced as a coalesced store.
        adopts = secure and scheme.is_early(MetadataStep.COUNTER)

        store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)
        accept_free_at = 0.0  # SecPB acceptance serialization point
        # In-flight drain completion times, oldest first.  Retiring
        # "every t <= now" pops from the left, and the oldest is the
        # earliest (tests/test_drain_accounting.py pins the accounting).
        drain_completions: Deque[float] = deque()
        retire = drain_completions.popleft
        capacity = config.secpb.entries
        # The drain engine is a single-server FIFO: drains serialize on
        # one free_at point.
        drain_free_at = 0.0
        peak_effective_occupancy = 0

        # Per-event counts, added to ``stats`` by ``sync``: every store,
        # new allocations, migrated entries priced as coalesced stores,
        # drains (each is one ``secpb.drains`` and one ``drain.services``),
        # remote-read flushes, backflow stalls and forced drains.
        stores = allocations = adopted = drains = flushes = 0
        backflow_stalls = forced_drains = 0
        # Float sums go to the collector per event, in event order.
        cycle_sums = stats.sums()

        # Hot-loop bindings: residency is the keys of the SecPB's map, so
        # its length IS secpb.occupancy.
        resident = secpb._entries
        pop_oldest = resident.popitem
        drain_targets = secpb.drain_targets
        high_watermark_entries = config.secpb.high_watermark_entries
        push_store = store_buffer.push

        # Optional tracing: bind emit closures once per run; every site
        # below guards on ``hook is not None`` so an untraced run pays
        # one local test per store and emits nothing.  Events never feed
        # back into timing or stats.
        tracer = self.tracer
        if tracer is not None:
            step_sets = (
                (scheme.early_steps, scheme.late_steps, scheme.eager_value_dependent)
                if secure
                else ((), (), ())
            )
            early_names, late_names, coalesce_names = (
                [s.value for s in ALL_STEPS if s in steps] for steps in step_sets
            )
            trace_accept = tracer.bind_complete("secpb.accept", "secpb", LANE_STORES)
            trace_coalesce = tracer.bind_complete("secpb.coalesce", "secpb", LANE_STORES)
            trace_drain = tracer.bind_complete("secpb.drain", "secpb", LANE_DRAIN)
            trace_backflow = tracer.bind_complete("secpb.backflow", "stall", LANE_STALLS)
            trace_sb_stall = tracer.bind_complete("core.sb_stall", "stall", LANE_STALLS)
            trace_forced = tracer.bind_instant("secpb.forced_drain", "secpb", LANE_STALLS)
            trace_occupancy = tracer.bind_counter("secpb.occupancy", LANE_DRAIN)
            # An accepted store's ``counter_miss``: the CTR$ miss count
            # rose while it was priced.
            read_counter_misses = (
                partial(mdc.stats.get, "mdc.counter.misses") if secure else None
            )
        else:
            early_names = late_names = coalesce_names = []
            trace_accept = trace_coalesce = trace_drain = None
            trace_backflow = trace_sb_stall = trace_forced = trace_occupancy = None

        def drain(now: float, count: int) -> None:
            """Drain the ``count`` oldest entries; each slot frees at MC
            completion."""
            nonlocal drain_free_at, drains
            for _ in range(count):
                addr = pop_oldest(False)[0]
                service = drain_service
                if drain_counter is not None:
                    drain_counter(addr)
                if drain_levels is not None:
                    service += drain_levels(addr) * drain_hash_cycles
                start = drain_free_at if drain_free_at > now else now
                drain_free_at = start + service
                drain_completions.append(drain_free_at)
                drains += 1
                if trace_drain is not None:
                    trace_drain(
                        start,
                        service,
                        {"addr": addr, "late_steps": late_names, "occupancy": len(resident)},
                    )

        def store(clock: float, block_addr: int, migrated: bool = False) -> float:
            """The SecPB write, accepted in parallel with the L1D access.

            ``migrated``: a remote write took the block's entry from its
            owner (the block is not resident here).
            """
            nonlocal accept_free_at, peak_effective_occupancy
            nonlocal stores, allocations, adopted, backflow_stalls, forced_drains
            stores += 1
            if block_addr in resident:
                new_entry = False
            else:
                # Backflow: a physical slot frees only when its drain
                # completes at the MC; a full buffer stalls the allocation
                # (the COBCM-class overhead of Sec. VI-A).
                while True:
                    # Retire finished drains, then test effective occupancy
                    # (structural entries + slots held by in-flight drains).
                    while drain_completions and drain_completions[0] <= clock:
                        retire()
                    if len(resident) + len(drain_completions) < capacity:
                        break
                    drain(clock, drain_targets())
                    while drain_completions and drain_completions[0] <= clock:
                        retire()
                    if not drain_completions:
                        if not resident:
                            break  # every slot already freed by instant drains
                        # The watermark policy can yield zero targets while
                        # occupied slots block the allocation (e.g. in-flight
                        # drains holding slots below the high watermark, or a
                        # 1-entry buffer).  Force one drain so the loop makes
                        # progress and the buffer can never be over-committed.
                        drain(clock, 1)
                        forced_drains += 1
                        if trace_forced is not None:
                            trace_forced(clock, {"addr": block_addr})
                        continue
                    release = drain_completions[0]
                    backflow_stalls += 1
                    cycle_sums["secpb.backflow_cycles"] += release - clock
                    if trace_backflow is not None:
                        trace_backflow(clock, release - clock, {"addr": block_addr})
                    clock = release

                resident[block_addr] = None
                allocations += 1
                new_entry = True
                if migrated and adopts:
                    new_entry = False
                    adopted += 1
                while drain_completions and drain_completions[0] <= clock:
                    retire()
                occupancy_now = len(resident) + len(drain_completions)
                if occupancy_now > peak_effective_occupancy:
                    peak_effective_occupancy = occupancy_now
                if trace_occupancy is not None:
                    trace_occupancy(clock, {"effective": occupancy_now})

            accept_start = clock if clock > accept_free_at else accept_free_at
            if not secure:
                # Insecure BBB: the pipelined buffer write has no metadata
                # work, so acceptance never serializes and the store
                # completes the moment it is accepted.
                completion = accept_start
            elif new_entry:
                if trace_accept is not None:
                    misses_before = read_counter_misses()
                if price_new_entry is not None:
                    unblock = price_new_entry(accept_start, block_addr)
                else:
                    unblock = 0.0
                cycle_sums["secpb.new_entry_cycles"] += unblock
                completion = accept_start + unblock
            else:
                if price_coalesced is not None:
                    unblock = price_coalesced(accept_start, block_addr)
                else:
                    unblock = 0.0
                cycle_sums["secpb.coalesced_cycles"] += unblock
                completion = accept_start + unblock
            accept_free_at = completion
            if trace_accept is not None:
                if new_entry:
                    trace_accept(
                        accept_start,
                        completion - accept_start,
                        {
                            "addr": block_addr,
                            "early_steps": early_names,
                            "counter_miss": (
                                secure and read_counter_misses() > misses_before
                            ),
                        },
                    )
                else:
                    trace_coalesce(
                        accept_start,
                        completion - accept_start,
                        {"addr": block_addr, "early_steps": coalesce_names},
                    )

            # The core stalls only when the store buffer is full.
            stall = push_store(clock, completion)
            clock += stall + 1.0  # one issue slot per store
            if trace_sb_stall is not None and stall > 0.0:
                trace_sb_stall(clock - stall - 1.0, stall, {"addr": block_addr})

            if len(resident) >= high_watermark_entries:
                drain(clock, drain_targets())
            return clock

        def flush(now: float, block_addr: int) -> None:
            """A remote read: the entry leaves for PM on the drain engine.

            Unlike a watermark drain, it holds no slot while in flight and
            counts no drain service.
            """
            nonlocal drain_free_at, flushes
            resident.pop(block_addr, None)
            service = drain_service
            if drain_counter is not None:
                drain_counter(block_addr)
            if drain_levels is not None:
                service += drain_levels(block_addr) * drain_hash_cycles
            start = drain_free_at if drain_free_at > now else now
            drain_free_at = start + service
            flushes += 1

        def sync() -> None:
            """Add the counts kept since the last sync to ``stats``."""
            nonlocal stores, allocations, adopted, drains, flushes
            nonlocal backflow_stalls, forced_drains
            counts = [
                ("secpb.writes", stores),
                ("secpb.allocations", allocations),
                ("secpb.drains", drains),
                ("drain.services", drains),
                ("secpb.backflow_stalls", backflow_stalls),
                ("secpb.forced_drains", forced_drains),
            ]
            if controller is not None:
                new_entries = allocations - adopted
                bmt_updates, mac_generations = controller.metadata_counts(
                    new_entries, stores - new_entries, drains + flushes
                )
                counts.append(("bmt.root_updates", bmt_updates))
                counts.append(("mac.generations", mac_generations))
            stats.add_counts(counts)
            stores = allocations = adopted = drains = flushes = 0
            backflow_stalls = forced_drains = 0

        def report() -> Dict[str, float]:
            """Occupancy gauges and PPTI/NWPE over the measured region.

            Execution ends with the core: outstanding drains continue on
            the battery-less normal path and do not extend it.
            """
            stats.set("secpb.final_occupancy", secpb.occupancy)
            # Gauge over the whole run (warmup included): structural
            # occupancy plus slots held by in-flight drains, sampled after
            # each allocation.  Never exceeds the configured capacity.
            stats.set("secpb.peak_effective_occupancy", peak_effective_occupancy)
            # Derived statistics join the snapshot *before* the result is
            # built — a SimulationResult is an immutable record of the
            # measured region (secpb-lint SPB302).
            result_stats = stats.as_dict()
            result_stats["ppti"] = stats.ppti
            result_stats["nwpe"] = stats.nwpe
            return result_stats

        return StorePath(store, sync, mdc, report=report, secpb=secpb, flush=flush)


def run_scheme(
    trace: Trace,
    scheme: Optional[Scheme],
    config: Optional[SystemConfig] = None,
    calibration: Optional[TimingCalibration] = None,
    warmup_frac: float = 0.0,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Convenience one-shot: simulate ``trace`` under ``scheme``."""
    simulator = SecurePersistencySimulator(
        config=config,
        scheme=scheme,
        calibration=calibration,
        tracer=tracer,
    )
    return simulator.run(trace, warmup_frac)
