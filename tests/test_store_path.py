"""The flat SecPB and SP store paths equal the object paths they replaced.

:meth:`SecurePersistencySimulator._store_path` keeps residency as the keys
of the SecPB's FIFO map, prices through the controller's compiled closures
(:meth:`SecPBController.compile_pricing`), writes the engines' ``free_at``
in place and keeps in-flight drains in a FIFO.  The path it replaced is
kept here as ``_reference_store_path``: a ``SecPBEntry`` per residency
through ``SecPB.allocate``/``coalesce``/``drain_oldest_addr``, the
controller's ``price_*`` methods, ``BusyResource.request`` and a heap of
drain completions.  SP's path likewise replaced ``BusyResource.request``
with a ``free_at`` of its own; ``_reference_sp_store_path`` keeps the
request.

``TestStorePathOracle`` runs each model through :meth:`TraceSimulator.run`
with either path and compares cycles exactly, instructions, every counter
value and the key set.  Multi-core runs are pinned by
``tests/data/golden_multicore.json`` and the 4-core runs of
``tests/data/golden_inexact.json``.
"""

import copy
import dataclasses
from functools import partial
from heapq import heappop, heappush
from typing import Dict, List, Optional

import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core import secpb as secpb_module
from repro.core.controller import SecPBController, TimingCalibration
from repro.core.schemes import (
    ALL_STEPS,
    CM,
    COBCM,
    OBCM,
    SPECTRUM_ORDER,
    MetadataStep,
    enumerate_valid_schemes,
    get_scheme,
)
from repro.core.secpb import SecPB, SecPBEntry
from repro.core.simulator import SecurePersistencySimulator, StorePath, TraceSimulator
from repro.obs.tracing import LANE_DRAIN, LANE_STALLS, LANE_STORES, Tracer
from repro.security.bmf import ForestTimingModel
from repro.security.metadata_cache import MetadataCaches
from repro.sim.config import SystemConfig
from repro.sim.engine import BoundedPipeline, BusyResource
from repro.sim.stats import StatsCollector
from repro.workloads.spec import build_trace

INEXACT = TimingCalibration(cpi_base=0.1, load_blocking_fraction=0.3)
"""A calibration whose clock addends do not sum exactly (see
tests/test_trace_loop.py), so a change in the order of float sums shows."""
ENTRIES = (1, 2, 4, 32, 512)
WARMUPS = (0.0, 0.3)


def _reference_store_path(
    model: SecurePersistencySimulator,
    stats: StatsCollector,
    mdc: Optional[MetadataCaches] = None,
    bmt_engine: Optional[BusyResource] = None,
    mac_engine: Optional[BusyResource] = None,
) -> StorePath:
    """The object store path :meth:`SecurePersistencySimulator._store_path`
    replaced: one ``SecPBEntry`` per residency, the controller's ``price_*``
    methods, ``BusyResource.request`` and a min-heap of in-flight drains."""
    config = model.config
    cal = model.calibration
    secure = model.scheme is not None

    if secure:
        if mdc is None:
            mdc = MetadataCaches(config, stats)
        controller = SecPBController(
            config,
            model.scheme,
            mdc,
            bmt_levels_fn=model._bmt_levels_fn,
            calibration=cal,
            value_independent_coalescing=model.value_independent_coalescing,
            bmt_engine=bmt_engine,
            mac_engine=mac_engine,
        )
        secpb = SecPB(config.secpb, model.scheme, stats)
    else:
        mdc = None
        controller = None
        secpb = SecPB(config.secpb, COBCM, stats)

    store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)
    accept_free_at = 0.0
    drain_completions: List[float] = []
    capacity = config.secpb.entries
    drain_transfer = float(cal.drain_transfer_cycles)
    stores = allocations = adopted = drains = flushes = 0

    secpb_entries = secpb._entries
    count_forced_drain = stats.counter("secpb.forced_drains")
    count_backflow_stall = stats.counter("secpb.backflow_stalls")
    add_backflow_cycles = stats.counter("secpb.backflow_cycles")
    price_drain = controller.price_drain if controller is not None else None
    high_watermark_entries = config.secpb.high_watermark_entries
    drain_free_at = 0.0
    peak_effective_occupancy = 0
    add_new_entry_cycles = stats.counter("secpb.new_entry_cycles")
    add_coalesced_cycles = stats.counter("secpb.coalesced_cycles")

    tracer = model.tracer
    if tracer is not None:
        scheme = model.scheme
        step_sets = (
            (scheme.early_steps, scheme.late_steps, scheme.eager_value_dependent)
            if scheme is not None
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
        read_counter_misses = (
            partial(mdc.stats.get, "mdc.counter.misses") if secure else None
        )
    else:
        early_names = late_names = coalesce_names = []
        trace_accept = trace_coalesce = trace_drain = None
        trace_backflow = trace_sb_stall = trace_forced = trace_occupancy = None

    def drain_one(now: float) -> None:
        nonlocal drain_free_at, drains
        addr = secpb.drain_oldest_addr()
        service = price_drain(addr) if price_drain is not None else drain_transfer
        start = drain_free_at if drain_free_at > now else now
        completion = start + service
        drain_free_at = completion
        heappush(drain_completions, completion)
        drains += 1
        if trace_drain is not None:
            trace_drain(
                start,
                service,
                {"addr": addr, "late_steps": late_names, "occupancy": len(secpb_entries)},
            )

    def start_drains(now: float) -> None:
        for _ in range(secpb.drain_targets()):
            drain_one(now)

    def store(clock: float, block_addr: int, migrated: Optional[SecPBEntry] = None) -> float:
        nonlocal accept_free_at, peak_effective_occupancy
        nonlocal stores, allocations, adopted
        stores += 1
        entry = secpb_entries.get(block_addr)
        if entry is None:
            while True:
                while drain_completions and drain_completions[0] <= clock:
                    heappop(drain_completions)
                if len(secpb_entries) + len(drain_completions) < capacity:
                    break
                start_drains(clock)
                while drain_completions and drain_completions[0] <= clock:
                    heappop(drain_completions)
                if not drain_completions:
                    if not secpb_entries:
                        break
                    drain_one(clock)
                    count_forced_drain()
                    if trace_forced is not None:
                        trace_forced(clock, {"addr": block_addr})
                    continue
                release = drain_completions[0]
                count_backflow_stall()
                add_backflow_cycles(release - clock)
                if trace_backflow is not None:
                    trace_backflow(clock, release - clock, {"addr": block_addr})
                clock = release

            entry = secpb.allocate(block_addr)
            allocations += 1
            allocated = True
            if migrated is not None:
                entry.adopt_value_independent(migrated)
                if entry.is_marked(MetadataStep.COUNTER):
                    allocated = False
                    adopted += 1
            while drain_completions and drain_completions[0] <= clock:
                heappop(drain_completions)
            occupancy_now = len(secpb_entries) + len(drain_completions)
            if occupancy_now > peak_effective_occupancy:
                peak_effective_occupancy = occupancy_now
            if trace_occupancy is not None:
                trace_occupancy(clock, {"effective": occupancy_now})
        else:
            secpb.coalesce(entry)
            allocated = False

        accept_start = clock if clock > accept_free_at else accept_free_at
        if secure:
            if allocated:
                if trace_accept is not None:
                    misses_before = read_counter_misses()
                unblock = controller.price_new_entry(accept_start, block_addr, entry)
                add_new_entry_cycles(unblock)
            else:
                unblock = controller.price_coalesced_store(accept_start, entry)
                add_coalesced_cycles(unblock)
            completion = accept_start + unblock
        else:
            completion = accept_start
        accept_free_at = completion
        if trace_accept is not None:
            if allocated:
                trace_accept(
                    accept_start,
                    completion - accept_start,
                    {
                        "addr": block_addr,
                        "early_steps": early_names,
                        "counter_miss": secure and read_counter_misses() > misses_before,
                    },
                )
            else:
                trace_coalesce(
                    accept_start,
                    completion - accept_start,
                    {"addr": block_addr, "early_steps": coalesce_names},
                )

        stall = store_buffer.push(clock, completion)
        clock += stall + 1.0
        if trace_sb_stall is not None and stall > 0.0:
            trace_sb_stall(clock - stall - 1.0, stall, {"addr": block_addr})

        if len(secpb_entries) >= high_watermark_entries:
            start_drains(clock)
        return clock

    def flush(now: float, block_addr: int) -> None:
        nonlocal drain_free_at, flushes
        secpb.remove(block_addr)
        service = price_drain(block_addr) if price_drain is not None else drain_transfer
        start = drain_free_at if drain_free_at > now else now
        drain_free_at = start + service
        flushes += 1

    def sync() -> None:
        nonlocal stores, allocations, adopted, drains, flushes
        counts = [
            ("secpb.writes", stores),
            ("secpb.allocations", allocations),
            ("secpb.drains", drains),
            ("drain.services", drains),
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

    def report() -> Dict[str, float]:
        stats.set("secpb.final_occupancy", secpb.occupancy)
        stats.set("secpb.peak_effective_occupancy", peak_effective_occupancy)
        result_stats = stats.as_dict()
        result_stats["ppti"] = stats.ppti
        result_stats["nwpe"] = stats.nwpe
        return result_stats

    return StorePath(store, sync, mdc, report=report, secpb=secpb, flush=flush)


def _reference_sp_store_path(
    model: StrictPersistencySimulator, stats: StatsCollector
) -> StorePath:
    """SP's store path before it kept the MC engine's ``free_at`` itself."""
    config = model.config
    cal = model.calibration
    mdc = MetadataCaches(config, stats)
    mc_engine = BusyResource("mc-tuple-engine")
    store_buffer = BoundedPipeline("store-buffer", config.store_buffer_entries)
    transit_to_mc = config.l1.access_cycles + config.l2.access_cycles + config.l3.access_cycles
    hash_cycles = config.security.mac_latency_cycles
    aes_cycles = config.security.aes_latency_cycles
    levels_fn = model._bmt_levels_fn
    full_levels = config.security.bmt_levels
    stores = 0

    def store(clock: float, block_addr: int) -> float:
        nonlocal stores
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
        _, busy_done = mc_engine.request(clock, service)
        completion = busy_done + transit_to_mc + hash_cycles
        stall = store_buffer.push(clock, completion)
        return clock + (stall + 1.0)

    def sync() -> None:
        nonlocal stores
        stats.add_counts((("bmt.root_updates", stores), ("mac.generations", stores)))
        stores = 0

    return StorePath(store, sync, mdc)


def _reference_run(model: TraceSimulator, trace, warmup_frac: float):
    """``model``'s run through the loop, on the reference store path."""
    reference = copy.copy(model)
    if isinstance(model, StrictPersistencySimulator):
        reference._store_path = partial(_reference_sp_store_path, model)
    else:
        reference._store_path = partial(_reference_store_path, model)
    return TraceSimulator.run(reference, trace, warmup_frac)


def _nonspec() -> SystemConfig:
    base = SystemConfig()
    return dataclasses.replace(
        base,
        security=dataclasses.replace(base.security, speculative_verification=False),
    )


def _bmf_levels(cut_height: int):
    return ForestTimingModel(
        full_height=SystemConfig().security.bmt_levels,
        cut_height=cut_height,
        root_cache_bytes=4096,
    ).levels


def _schemes():
    """BBB (``None``) and the six schemes."""
    return [None] + [get_scheme(name) for name in SPECTRUM_ORDER]


@pytest.fixture(scope="module")
def traces():
    """Store-heavy gamess with an L1-resident hot set, and mcf's PM misses
    followed by povray's stores (so non-speculative models verify loads)."""
    mixed = build_trace("mcf", 1500, 2).concat(build_trace("povray", 1500, 2))
    return [build_trace("gamess", 3000, 1), mixed]


def _check(model, trace, warmup_frac, twin=None):
    """``model``'s run equals the reference run of ``twin``, an equal model
    with state of its own (default: ``model``; a forest's root cache is
    state, so BMF models need a twin)."""
    result = model.run(trace, warmup_frac)
    reference = _reference_run(twin if twin is not None else model, trace, warmup_frac)
    name = f"{model.scheme_name} on {trace.name}"
    assert result.cycles == reference.cycles, name  # exact, not approx
    assert result.instructions == reference.instructions, name
    assert set(result.stats) == set(reference.stats), name
    assert result.stats == reference.stats, name
    return result


class TestStorePathOracle:
    """Flat path == object path, over every shape the compiled pricing takes."""

    @pytest.mark.parametrize("calibration", [None, INEXACT], ids=["default", "inexact"])
    @pytest.mark.parametrize("entries", ENTRIES)
    def test_schemes_sizes_and_warmups(self, traces, entries, calibration):
        config = SystemConfig().with_secpb_entries(entries)
        for trace in traces:
            for scheme in _schemes():
                model = SecurePersistencySimulator(config, scheme, calibration)
                for warmup in WARMUPS:
                    _check(model, trace, warmup)

    @pytest.mark.parametrize("cut_height", [2, 5])
    def test_bmf_cuts(self, traces, cut_height):
        for trace in traces:
            for scheme in (CM, COBCM):
                model, twin = (
                    SecurePersistencySimulator(
                        scheme=scheme, bmt_levels_fn=_bmf_levels(cut_height)
                    )
                    for _ in range(2)
                )
                _check(model, trace, 0.3, twin)
            model, twin = (
                StrictPersistencySimulator(bmt_levels_fn=_bmf_levels(cut_height))
                for _ in range(2)
            )
            _check(model, trace, 0.3, twin)

    def test_sp(self, traces):
        for trace in traces:
            for calibration in (None, INEXACT):
                _check(StrictPersistencySimulator(calibration=calibration), trace, 0.3)

    @pytest.mark.parametrize("entries", [4, 32])
    def test_without_value_independent_coalescing(self, traces, entries):
        config = SystemConfig().with_secpb_entries(entries)
        for trace in traces:
            for scheme in _schemes()[1:]:
                model = SecurePersistencySimulator(
                    config, scheme, INEXACT, value_independent_coalescing=False
                )
                _check(model, trace, 0.3)

    def test_design_space_schemes(self, traces):
        """The three valid splits no named scheme takes (a lazy OTP with an
        early BMT root, early ciphertext without it) compile too."""
        for scheme in enumerate_valid_schemes():
            for trace in traces:
                _check(SecurePersistencySimulator(scheme=scheme, calibration=INEXACT), trace, 0.3)

    def test_without_speculative_verification(self, traces):
        for trace in traces:
            for scheme in _schemes():
                _check(SecurePersistencySimulator(_nonspec(), scheme), trace, 0.3)
            result = _check(StrictPersistencySimulator(_nonspec()), trace, 0.3)
        assert result.stats["verify.load_verifications"] > 0

    def test_forced_drains(self, traces, monkeypatch):
        """A policy that never drains leaves only the forced drain."""
        monkeypatch.setattr(secpb_module.SecPB, "drain_targets", lambda self: 0)
        config = SystemConfig().with_secpb_entries(4)
        for scheme in (None, COBCM, OBCM, CM):
            result = _check(SecurePersistencySimulator(config, scheme), traces[0], 0.3)
            assert result.stats["secpb.forced_drains"] > 0

    def test_traced_run(self, traces):
        """A traced run emits the same events, in the same order."""
        config = SystemConfig().with_secpb_entries(4)
        for scheme in (None, COBCM, CM, get_scheme("nogap")):
            flat, reference = Tracer(), Tracer()
            model = SecurePersistencySimulator(config, scheme, INEXACT, tracer=flat)
            result = model.run(traces[1], 0.3)
            expected = _reference_run(
                SecurePersistencySimulator(config, scheme, INEXACT, tracer=reference),
                traces[1],
                0.3,
            )
            assert (result.cycles, result.stats) == (expected.cycles, expected.stats)
            assert flat.events == reference.events
            assert len(flat.events) > 0

    def test_cases_reach_what_they_name(self, traces):
        """Backflow, coalescing and both trace shapes are really exercised."""
        gamess, mixed = traces
        tiny = SystemConfig().with_secpb_entries(1)
        cobcm = _check(SecurePersistencySimulator(tiny, COBCM), gamess, 0.3)
        assert cobcm.stats["secpb.backflow_stalls"] > 0
        cm = _check(SecurePersistencySimulator(scheme=CM), gamess, 0.3)
        assert cm.stats["secpb.writes"] > cm.stats["secpb.allocations"] > 0
        assert mixed.num_stores > 0 and mixed.num_loads > 0
