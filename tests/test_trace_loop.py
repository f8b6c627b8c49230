"""The one single-core trace loop and the oracles that tie models to it.

SecPB, the SP baseline and flush-based persistency differ only in their
store path (:class:`repro.core.simulator.StorePath`); everything else —
warmup accounting, instruction and clock accounting, loads and their
optional non-speculative verification — is :meth:`TraceSimulator.run`.
These tests pin that structure and the differential oracles it implies:

* a load-only trace exercises no store path, so every single-core model
  reports the same cycles, instructions and cache counters;
* a one-core :class:`MultiCoreSecPBSimulator` (the lockstep loop over
  the same front end and SecPB store path) reports the same cycles,
  instructions and counters as the single-core loop, speculative or not;
* every model's cache and hierarchy counters equal a replay of the trace
  through a live :class:`MemoryHierarchy`, key presence included, and so
  do the front end's load-latency column and counters, also over cache
  geometries Table I never reaches;
* the loop, which walks the trace's load schedule, equals the op-by-op
  loop it replaced (kept here as ``_reference_run``) on cycles, exactly,
  instructions and every counter, over every model and the warmup
  boundaries and trace shapes that cut a schedule differently;
* the hierarchy's level passes run once per (trace, geometry), however
  many models, warmups and ``persist_region`` settings read them, one
  load schedule serves every model of a calibration, and a warmup that
  reaches the end of the trace leaves every count out;
* without speculative verification, every model whose store path carries
  metadata caches verifies PM loads — SP and secure flush included.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core import simulator
from repro.core.controller import TimingCalibration
from repro.core.multicore import MultiCoreSecPBSimulator
from repro.core.schemes import CM, NOGAP, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import (
    SecurePersistencySimulator,
    TraceSimulator,
    load_verification_cycles,
)
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.sim import hierarchy
from repro.sim.config import SECPB_SIZE_SWEEP, CacheConfig, SystemConfig
from repro.sim.hierarchy import MemoryHierarchy, front_end
from repro.sim.stats import SimulationResult, StatsCollector
from repro.workloads.spec import build_trace
from repro.workloads.store import TraceStore
from repro.workloads.synthetic import zipf_trace
from repro.workloads.trace import Trace

WARMUP = 0.3
SIMULATORS = (
    SecurePersistencySimulator,
    StrictPersistencySimulator,
    FlushBasedSimulator,
)
HIERARCHY_COUNTERS = ("cache.L1D.", "cache.L2.", "cache.L3.", "hierarchy.")
"""Prefixes of the counters the L1D/L2/LLC stack fires (not CTR$/MAC$/BMT$)."""
_TABLE1 = SystemConfig()
GEOMETRIES = {
    "table1": _TABLE1,
    "direct_mapped_l1d": dataclasses.replace(
        _TABLE1, l1=CacheConfig("L1D", 4 * 1024, 1, access_cycles=2)
    ),
    "single_set_l2": dataclasses.replace(
        _TABLE1, l2=CacheConfig("L2", 8 * 64, 8, access_cycles=20)
    ),
    "llc_128b_blocks": dataclasses.replace(
        _TABLE1,
        l3=CacheConfig("L3", 4 * 1024**2, 32, block_bytes=128, access_cycles=30),
    ),
}
"""Table I, and cache geometries it never reaches: one way per L1D set, an
L2 of one set (smaller than the L1D), and LLC blocks of two trace blocks."""
REPORT_KEYS = ("ppti", "nwpe", "secpb.final_occupancy", "secpb.peak_effective_occupancy")
"""Per-run gauges the single-core SecPB report adds; a multi-core run has
one collector for every core and reports none of them."""


def _nonspec() -> SystemConfig:
    base = SystemConfig()
    return dataclasses.replace(
        base,
        security=dataclasses.replace(base.security, speculative_verification=False),
    )


def _hierarchy_view(stats):
    return {
        key: value
        for key, value in stats.items()
        if key.startswith(HIERARCHY_COUNTERS)
    }


def _single_core_models():
    """One instance of every single-core timing model."""
    models = [SecurePersistencySimulator()]
    models += [SecurePersistencySimulator(scheme=get_scheme(n)) for n in SPECTRUM_ORDER]
    models += [
        SecurePersistencySimulator(_nonspec(), CM),
        StrictPersistencySimulator(),
        StrictPersistencySimulator(SystemConfig().with_bmf_cut(2)),
        FlushBasedSimulator(PersistencyModel.STRICT),
        FlushBasedSimulator(PersistencyModel.EPOCH, secure=True),
    ]
    return models


def _reference_replay(trace, config, persist_region, warmups):
    """A live replay through :class:`MemoryHierarchy`, op by op.

    Returns the load-latency column (``0`` for a store) and, for each
    warmup op count in ``warmups``, the hierarchy's counters over the
    measured region.  The same warmup protocol as the trace loop:
    snapshot at the boundary (after the last op when the warmup reaches
    past it), subtract at the end.  One replay serves every warmup.
    """
    stats = StatsCollector()
    live = MemoryHierarchy(config, stats)
    column = []
    snapshots = {}
    for index, (is_store, block_addr, _gap) in enumerate(trace.iter_ops()):
        if index in warmups:
            snapshots[index] = stats.snapshot()
        if is_store:
            live.store_access(block_addr << 6, persist_region)
            column.append(0)
        else:
            column.append(live.load_latency(block_addr << 6))
    counters = {}
    for warmup_ops in warmups:
        region = StatsCollector()
        region.merge(stats)
        region.subtract(snapshots.get(warmup_ops, stats.snapshot()))
        counters[warmup_ops] = region.as_dict()
    return column, counters


def _simloop_models():
    """The nine configurations the ``simloop`` benchmark workloads run."""
    models = [SecurePersistencySimulator()]
    models += [SecurePersistencySimulator(scheme=get_scheme(n)) for n in SPECTRUM_ORDER]
    return models + [StrictPersistencySimulator(), FlushBasedSimulator()]


def _reference_run(model, trace, warmup_frac):
    """The op-by-op trace loop that :meth:`TraceSimulator.run` replaced.

    Each op adds its gap's cycles and, for a load, its blended latency,
    read from the front end's column, to the clock one op at a time, and
    verifies a PM load when the model does.  Kept as the oracle the
    schedule-walking loop must equal.
    """
    config, cal = model.config, model.calibration
    warmup_ops = int(len(trace) * warmup_frac)
    front = front_end(trace, config, model.persist_region, warmup_ops)
    stats = StatsCollector()
    path = model._store_path(stats)

    clock = 0.0
    instructions = 0
    l1_hit_cycles = config.l1.access_cycles
    cpi_base = cal.cpi_base
    blocking = cal.load_blocking_fraction
    mdc = path.mdc
    verify_load_cycles = load_verification_cycles(config, mdc)
    memory_fill_cycles = config.memory_round_trip_cycles
    count_load_verification = stats.counter("verify.load_verifications")
    warmup_clock = 0.0
    warmup_instructions = 0
    warmup_stats = {}
    for op_index, ((is_store, block_addr, gap), latency) in enumerate(
        zip(trace.iter_ops(), front.load_latency)
    ):
        if op_index == warmup_ops and warmup_ops:
            warmup_clock = clock
            warmup_instructions = instructions
            path.sync()
            warmup_stats = stats.snapshot()
        instructions += gap + 1
        clock += gap * cpi_base
        if not is_store:
            if latency >= memory_fill_cycles and verify_load_cycles:
                latency += mdc.access_counter(block_addr)
                latency += verify_load_cycles
                count_load_verification()
            if latency <= l1_hit_cycles:
                clock += latency
            else:
                clock += l1_hit_cycles + blocking * (latency - l1_hit_cycles)
            continue
        clock = path.store(clock, block_addr)

    if path.finish is not None:
        clock = path.finish(clock)
    path.sync()
    if warmup_ops:
        stats.subtract(warmup_stats)
    stats.merge(front.stats)
    stats.set("instructions", instructions - warmup_instructions)
    result_stats = path.report() if path.report is not None else stats.as_dict()
    return SimulationResult(
        scheme=model.scheme_name,
        benchmark=trace.name,
        cycles=clock - warmup_clock,
        instructions=instructions - warmup_instructions,
        stats=result_stats,
    )


class TestOneLoop:
    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_subclasses_the_loop_directly(self, cls):
        assert cls.__bases__ == (TraceSimulator,)

    @pytest.mark.parametrize("cls", SIMULATORS)
    def test_defines_no_run_of_its_own(self, cls):
        assert "run" not in vars(cls)
        assert cls.run is TraceSimulator.run


class TestLoadOnlyOracle:
    """No stores, no store path: every model is the same machine."""

    @pytest.fixture(scope="class")
    def load_only(self):
        trace = build_trace("mcf", 4000, 1)
        no_stores = np.zeros_like(trace.is_store)
        return Trace(trace.name, no_stores, trace.block_addr, trace.gap)

    def test_all_models_agree(self, load_only):
        simulators = [
            SecurePersistencySimulator(),
            SecurePersistencySimulator(scheme=NOGAP),
            StrictPersistencySimulator(),
            FlushBasedSimulator(PersistencyModel.STRICT),
            FlushBasedSimulator(PersistencyModel.EPOCH, secure=True),
        ]
        views = []
        for simulator in simulators:
            result = simulator.run(load_only, WARMUP)
            hierarchy = {
                key: value
                for key, value in result.stats.items()
                if key.startswith(("cache.", "hierarchy."))
            }
            views.append((result.cycles, result.instructions, hierarchy))
        assert views[0][0] == 278630.0
        assert views[0][2]  # the cache counters are really compared
        for view in views[1:]:
            assert view == views[0]


def _with_stores(trace, is_store, name):
    return Trace(name, np.asarray(is_store, dtype=bool), trace.block_addr, trace.gap)


def _boundary_at(trace, warmup_ops):
    """A warmup fraction whose boundary falls at op ``warmup_ops``."""
    warmup_frac = (warmup_ops + 0.5) / len(trace)
    assert int(len(trace) * warmup_frac) == warmup_ops
    return warmup_frac


def _first_op(trace, pattern):
    """The first op ``i`` whose ops ``i - len(pattern) + 1 .. i`` match.

    ``pattern`` spells stores ``s`` and loads ``l``, in op order.
    """
    spelled = "".join("s" if store else "l" for store in trace.is_store)
    return spelled.index(pattern, len(trace) // 4) + len(pattern) - 1


def _oracle_cases():
    """(trace, warmup fraction) per case: each cuts a schedule differently.

    The mixed trace holds mcf's PM fills (so non-speculative models
    verify loads) and gamess's store runs.
    """
    mixed = build_trace("mcf", 1500, 3).concat(build_trace("gamess", 1500, 3))
    n = len(mixed)
    ends_in_loads = mixed.is_store.copy()
    ends_in_loads[-40:] = False
    zero_gaps = Trace("zero_gaps", mixed.is_store, mixed.block_addr,
                      np.zeros_like(mixed.gap))
    empty = Trace("empty", np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
                  np.zeros(0, dtype=np.int32))
    return {
        "warmup_0": (mixed, 0.0),
        "boundary_on_store_after_store": (mixed, _boundary_at(mixed, _first_op(mixed, "ss"))),
        "boundary_on_load_after_store": (mixed, _boundary_at(mixed, _first_op(mixed, "sl"))),
        "boundary_on_load_in_a_run": (mixed, _boundary_at(mixed, _first_op(mixed, "lll"))),
        "boundary_after_a_run_of_loads": (mixed, _boundary_at(mixed, _first_op(mixed, "llls"))),
        "boundary_on_the_last_op": (mixed, _boundary_at(mixed, n - 1)),
        "ends_in_loads": (_with_stores(mixed, ends_in_loads, "ends_in_loads"), WARMUP),
        "all_stores": (_with_stores(mixed, np.ones(n), "all_stores"), WARMUP),
        "all_loads": (_with_stores(mixed, np.zeros(n), "all_loads"), WARMUP),
        "empty": (empty, WARMUP),
        "zero_gaps": (zero_gaps, WARMUP),
    }


ORACLE_CASES = _oracle_cases()


INEXACT = TimingCalibration(cpi_base=0.1, load_blocking_fraction=0.3)
"""Addends the clock cannot sum exactly: the default calibration's are
multiples of small powers of two, whose sums are exact in any order, so
only this one shows a change of summation order."""


def _oracle_models():
    """The nine simloop configurations, plus non-speculative CM, SP and
    secure flush (each verifies PM loads), and CM and SP on ``INEXACT``."""
    return _simloop_models() + [
        SecurePersistencySimulator(_nonspec(), CM),
        StrictPersistencySimulator(_nonspec()),
        FlushBasedSimulator(PersistencyModel.EPOCH, secure=True, config=_nonspec()),
        SecurePersistencySimulator(scheme=CM, calibration=INEXACT),
        StrictPersistencySimulator(_nonspec(), calibration=INEXACT),
    ]


class TestScheduleOracle:
    """The schedule-walking loop equals the op-by-op loop it replaced."""

    @staticmethod
    def _check(model, trace, warmup_frac):
        result = model.run(trace, warmup_frac)
        reference = _reference_run(model, trace, warmup_frac)
        name = model.scheme_name
        assert result.cycles == reference.cycles, name  # exact, not approx
        assert result.instructions == reference.instructions, name
        assert set(result.stats) == set(reference.stats), name
        assert result.stats == reference.stats, name
        assert result == reference, name
        return result

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_equals_the_op_by_op_loop(self, case):
        trace, warmup_frac = ORACLE_CASES[case]
        for model in _oracle_models():
            self._check(model, trace, warmup_frac)

    def test_cases_reach_what_they_name(self):
        mixed, _ = ORACLE_CASES["warmup_0"]
        verified = self._check(SecurePersistencySimulator(_nonspec(), CM), mixed, WARMUP)
        assert verified.stats["verify.load_verifications"] > 0
        assert all(ORACLE_CASES["ends_in_loads"][0].is_store[-40:] == 0)
        assert ORACLE_CASES["all_stores"][0].num_loads == 0
        assert ORACLE_CASES["all_loads"][0].num_stores == 0
        empty = self._check(SecurePersistencySimulator(scheme=CM), *ORACLE_CASES["empty"])
        assert (empty.cycles, empty.instructions) == (0.0, 0)

    def test_calibration_is_part_of_the_memo_key(self):
        trace = build_trace("mcf", 2000, 4)
        default = SecurePersistencySimulator(scheme=CM).run(trace, WARMUP)
        assert trace.__dict__["_load_schedules"]  # the default is memoized
        for calibration in (
            TimingCalibration(cpi_base=0.1),
            TimingCalibration(load_blocking_fraction=0.3),
        ):
            model = SecurePersistencySimulator(scheme=CM, calibration=calibration)
            result = self._check(model, trace, WARMUP)
            assert result.cycles != default.cycles


class TestOneCoreMulticoreOracle:
    """The lockstep multicore loop with one core is the single-core loop.

    Every counter agrees, the single-core report's gauges aside.
    """

    @staticmethod
    def _check(trace, config, scheme):
        multi = MultiCoreSecPBSimulator(1, scheme, config).run([trace], WARMUP)
        single = SecurePersistencySimulator(config, scheme).run(trace, WARMUP)
        name = single.scheme
        assert (multi.cycles, multi.instructions) == (
            single.cycles,
            single.instructions,
        ), name
        assert multi.per_core_cycles == [single.cycles], name
        counters = {k: v for k, v in single.stats.items() if k not in REPORT_KEYS}
        assert multi.stats == counters, name
        return multi

    @pytest.mark.parametrize("workload", ["gamess", "mcf", "hmmer", "povray"])
    @pytest.mark.parametrize("entries", [8, 32])
    def test_matches_single_core(self, workload, entries):
        trace = build_trace(workload, 3000, 2)
        config = SystemConfig().with_secpb_entries(entries)
        for name in ["bbb"] + SPECTRUM_ORDER:
            scheme = None if name == "bbb" else get_scheme(name)
            self._check(trace, config, scheme)

    @pytest.mark.parametrize("workload", ["gamess", "mcf"])
    def test_matches_single_core_without_speculation(self, workload):
        trace = build_trace(workload, 3000, 2)
        cm = self._check(trace, _nonspec(), CM)
        bbb = self._check(trace, _nonspec(), None)
        assert cm.stats["verify.load_verifications"] > 0
        assert "verify.load_verifications" not in bbb.stats
        if workload == "mcf":
            assert cm.cycles == pytest.approx(304250.7, abs=0.01)
            assert cm.stats["verify.load_verifications"] == 1996


class TestHierarchyReplayOracle:
    """Each model's cache counters equal a live replay of its trace.

    The zipf trace overflows L2 and fires every hierarchy counter across
    the two ``persist_region`` settings.  Followed by a 64-block tail
    that stays L2-resident, and measured over the tail alone, it leaves
    L2 misses, the LLC and memory reads present as ``0.0``: they fired
    only during warmup.
    """

    @pytest.fixture(scope="class")
    def zipf(self):
        return zipf_trace(30_000, 20_000, store_fraction=0.4, seed=3)

    @pytest.fixture(scope="class")
    def zipf_then_tail(self, zipf):
        tail = zipf_trace(6_000, 64, store_fraction=0.4, seed=3)
        return zipf.concat(tail), len(zipf) / (len(zipf) + len(tail))

    @staticmethod
    def _check_models(trace, warmup_frac):
        warmup_ops = int(len(trace) * warmup_frac)
        references = {
            persist_region: _reference_replay(
                trace, SystemConfig(), persist_region, [warmup_ops]
            )[1][warmup_ops]
            for persist_region in (True, False)
        }
        for model in _single_core_models():
            result = model.run(trace, warmup_frac)
            expected = references[model.persist_region]
            assert _hierarchy_view(result.stats) == expected, model.scheme_name
        return references

    @pytest.mark.parametrize("warmup_frac", [0.0, WARMUP])
    def test_zipf(self, zipf, warmup_frac):
        references = self._check_models(zipf, warmup_frac)
        fired = set(references[True]) | set(references[False])
        assert len(fired) == 10
        assert all(references[True][key] > 0 for key in references[True])

    @pytest.fixture(scope="class")
    def traces(self, zipf):
        return {
            "zipf": zipf,
            "mcf": build_trace("mcf", 6000, 1),
            "gamess": build_trace("gamess", 3000, 1),
        }

    @pytest.mark.parametrize("persist_region", [True, False])
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("workload", ["zipf", "mcf", "gamess"])
    def test_front_end_equals_live_replay(self, traces, workload, geometry,
                                          persist_region):
        trace, config = traces[workload], GEOMETRIES[geometry]
        n = len(trace)
        warmups = [0, n // 3, n - 1, n, n + 7]
        column, counters = _reference_replay(trace, config, persist_region, warmups)
        for warmup_ops in warmups:
            front = front_end(trace, config, persist_region, warmup_ops)
            assert front.load_latency == column, warmup_ops
            assert front.stats.as_dict() == counters[warmup_ops], warmup_ops
        # One int object per distinct latency.
        assert len(set(map(id, front.load_latency))) == len(set(front.load_latency))

    def test_counters_fired_only_in_warmup_stay_present(self, zipf, zipf_then_tail):
        trace, warmup_frac = zipf_then_tail
        assert int(len(trace) * warmup_frac) == len(zipf)
        references = self._check_models(trace, warmup_frac)
        for reference in references.values():
            for key in ("cache.L2.misses", "cache.L3.hits", "cache.L3.misses",
                        "hierarchy.memory_reads"):
                assert reference[key] == 0.0, key
        assert references[False]["hierarchy.victim_writebacks"] == 0.0


class TestOneReplayPerTrace:
    """Models sharing a trace, geometry and warmup share one replay."""

    @pytest.fixture
    def replays(self, monkeypatch):
        """The traces the front end replays, one entry per replay."""
        replayed = []
        original = hierarchy._replay

        def counted(trace, *args):
            replayed.append(trace.name)
            return original(trace, *args)

        monkeypatch.setattr(hierarchy, "_replay", counted)
        return replayed

    @staticmethod
    def _every_persistent_model():
        """BBB, every scheme, every Fig. 7 SecPB size, every Fig. 9 BMF cut, SP."""
        config = SystemConfig()
        models = [SecurePersistencySimulator()]
        models += [
            SecurePersistencySimulator(scheme=get_scheme(n)) for n in SPECTRUM_ORDER
        ]
        models += [
            SecurePersistencySimulator(config.with_secpb_entries(n), CM)
            for n in SECPB_SIZE_SWEEP
        ]
        for cut in (2, 5):
            models += [
                SecurePersistencySimulator(config.with_bmf_cut(cut), CM),
                StrictPersistencySimulator(config.with_bmf_cut(cut)),
            ]
        models.append(StrictPersistencySimulator())
        return models

    def test_one_replay_serves_every_persistent_model(self, replays):
        trace = build_trace("gamess", 3000, 5)
        for model in self._every_persistent_model():
            model.run(trace, WARMUP)
        assert replays == [trace.name]

        # Volatile caches and another warmup read the same level passes;
        # only another geometry replays.
        FlushBasedSimulator().run(trace, WARMUP)
        assert len(replays) == 1
        SecurePersistencySimulator(scheme=CM).run(trace, 0.0)
        assert len(replays) == 1
        SecurePersistencySimulator(GEOMETRIES["single_set_l2"], CM).run(trace, WARMUP)
        assert len(replays) == 2

    def test_one_schedule_serves_every_persistent_model(self, monkeypatch):
        built = []
        original = simulator._build_load_schedule

        def counted(trace, *args):
            built.append(trace.name)
            return original(trace, *args)

        monkeypatch.setattr(simulator, "_build_load_schedule", counted)
        trace = build_trace("mcf", 3000, 5)
        for model in self._every_persistent_model():
            model.run(trace, WARMUP)
        assert built == [trace.name]
        # Volatile caches price loads alike; non-speculative verification
        # and another warmup each build their own.
        FlushBasedSimulator().run(trace, WARMUP)
        assert len(built) == 1
        SecurePersistencySimulator(_nonspec(), CM).run(trace, WARMUP)
        assert len(built) == 2
        SecurePersistencySimulator(scheme=CM).run(trace, 0.0)
        assert len(built) == 3

    @pytest.mark.parametrize("beyond", [0, 1, 500])
    def test_warmup_past_the_trace_excludes_every_count(self, beyond):
        # A multi-core warmup counts rounds of the longest trace, so a
        # shorter core's warmup can reach or pass its last op.
        trace = build_trace("mcf", 2000, 1)
        front = front_end(trace, SystemConfig(), True, len(trace) + beyond)
        counts = front.stats.as_dict()
        _, reference = _reference_replay(trace, SystemConfig(), True, [0])
        assert set(counts) == set(reference[0])
        assert all(value == 0.0 for value in counts.values())

    def test_replays_go_with_their_trace(self, replays):
        store = TraceStore()
        SecurePersistencySimulator().run(store.get("mcf", 2000, 1), WARMUP)
        SecurePersistencySimulator(scheme=CM).run(store.get("mcf", 2000, 1), WARMUP)
        assert len(replays) == 1
        store.clear()
        SecurePersistencySimulator().run(store.get("mcf", 2000, 1), WARMUP)
        assert len(replays) == 2


class TestNonSpeculativeVerification:
    """Every model with metadata caches verifies PM loads when told to."""

    @pytest.fixture(scope="class")
    def mcf(self):
        return build_trace("mcf", 6000, 1)

    def test_sp_verifies_like_cm(self, mcf):
        cm = SecurePersistencySimulator(_nonspec(), CM).run(mcf, WARMUP)
        sp = StrictPersistencySimulator(_nonspec()).run(mcf, WARMUP)
        speculative = StrictPersistencySimulator().run(mcf, WARMUP)
        assert cm.stats["verify.load_verifications"] == 3976
        assert sp.stats["verify.load_verifications"] == 3976
        assert speculative.cycles == 396540.5
        assert sp.cycles == pytest.approx(545224.7, abs=0.01)

    def test_secure_flush_verifies(self, mcf):
        flush = FlushBasedSimulator(secure=True, config=_nonspec()).run(mcf, WARMUP)
        speculative = FlushBasedSimulator(secure=True).run(mcf, WARMUP)
        assert flush.stats["verify.load_verifications"] == 3976
        assert speculative.cycles == 530432.5
        assert flush.cycles == pytest.approx(643696.7, abs=0.01)

    @pytest.mark.parametrize(
        "make",
        [
            lambda config: SecurePersistencySimulator(config),
            lambda config: FlushBasedSimulator(config=config),
        ],
        ids=["bbb", "flush_plain"],
    )
    def test_models_without_metadata_unchanged(self, mcf, make):
        nonspec = make(_nonspec()).run(mcf, WARMUP)
        speculative = make(SystemConfig()).run(mcf, WARMUP)
        assert "verify.load_verifications" not in nonspec.stats
        assert nonspec == speculative
