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
  through a live :class:`MemoryHierarchy`, key presence included;
* the hierarchy is replayed once per (trace, geometry, ``persist_region``,
  warmup), however many models run on the trace, and a warmup that
  reaches the end of the trace leaves every count out;
* without speculative verification, every model whose store path carries
  metadata caches verifies PM loads — SP and secure flush included.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.multicore import MultiCoreSecPBSimulator
from repro.core.schemes import CM, NOGAP, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator, TraceSimulator
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.security.bmf import ForestTimingModel
from repro.sim.config import SECPB_SIZE_SWEEP, SystemConfig
from repro.sim.hierarchy import MemoryHierarchy, front_end
from repro.sim.stats import StatsCollector
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


def _bmf_levels(cut_height: int):
    config = SystemConfig()
    return ForestTimingModel(
        full_height=config.security.bmt_levels,
        cut_height=cut_height,
        root_cache_bytes=4096,
    ).levels


def _single_core_models():
    """One instance of every single-core timing model."""
    models = [SecurePersistencySimulator()]
    models += [SecurePersistencySimulator(scheme=get_scheme(n)) for n in SPECTRUM_ORDER]
    models += [
        SecurePersistencySimulator(_nonspec(), CM),
        StrictPersistencySimulator(),
        StrictPersistencySimulator(bmt_levels_fn=_bmf_levels(2)),
        FlushBasedSimulator(PersistencyModel.STRICT),
        FlushBasedSimulator(PersistencyModel.EPOCH, secure=True),
    ]
    return models


def _reference_replay(trace, persist_region, warmup_frac):
    """The hierarchy's counters from a live replay, op by op.

    The same warmup protocol as the trace loop: snapshot at the boundary,
    subtract at the end.
    """
    stats = StatsCollector()
    hierarchy = MemoryHierarchy(SystemConfig(), stats)
    warmup_ops = int(len(trace) * warmup_frac)
    warmup_stats = {}
    for index, (is_store, block_addr, _gap) in enumerate(trace.iter_ops()):
        if index == warmup_ops and warmup_ops:
            warmup_stats = stats.snapshot()
        if is_store:
            hierarchy.store_access(block_addr << 6, persist_region)
        else:
            hierarchy.load_latency(block_addr << 6)
    stats.subtract(warmup_stats)
    return stats.as_dict()


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
        references = {
            persist_region: _reference_replay(trace, persist_region, warmup_frac)
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
    def hierarchy_calls(self, monkeypatch):
        calls = []
        for name in ("load_latency", "store_access"):
            original = getattr(MemoryHierarchy, name)

            def counted(self, *args, _original=original):
                calls.append(args[0])
                return _original(self, *args)

            monkeypatch.setattr(MemoryHierarchy, name, counted)
        return calls

    def test_one_replay_serves_every_persistent_model(self, hierarchy_calls):
        trace = build_trace("gamess", 3000, 5)
        config = SystemConfig()
        models = [SecurePersistencySimulator()]
        models += [
            SecurePersistencySimulator(scheme=get_scheme(n)) for n in SPECTRUM_ORDER
        ]
        models += [
            StrictPersistencySimulator(),
            StrictPersistencySimulator(bmt_levels_fn=_bmf_levels(2)),
        ]
        models += [
            SecurePersistencySimulator(config.with_secpb_entries(n), CM)
            for n in SECPB_SIZE_SWEEP
        ]
        for model in models:
            model.run(trace, WARMUP)
        assert len(hierarchy_calls) == len(trace)

        # Volatile caches are another replay, and so is another warmup.
        FlushBasedSimulator().run(trace, WARMUP)
        assert len(hierarchy_calls) == 2 * len(trace)
        SecurePersistencySimulator(scheme=CM).run(trace, 0.0)
        assert len(hierarchy_calls) == 3 * len(trace)

    @pytest.mark.parametrize("beyond", [0, 1, 500])
    def test_warmup_past_the_trace_excludes_every_count(self, beyond):
        # A multi-core warmup counts rounds of the longest trace, so a
        # shorter core's warmup can reach or pass its last op.
        trace = build_trace("mcf", 2000, 1)
        front = front_end(trace, SystemConfig(), True, len(trace) + beyond)
        counts = front.stats.as_dict()
        assert set(counts) == set(_reference_replay(trace, True, 0.0))
        assert all(value == 0.0 for value in counts.values())

    def test_replays_go_with_their_trace(self, hierarchy_calls):
        store = TraceStore()
        SecurePersistencySimulator().run(store.get("mcf", 2000, 1), WARMUP)
        SecurePersistencySimulator(scheme=CM).run(store.get("mcf", 2000, 1), WARMUP)
        assert len(hierarchy_calls) == 2000
        store.clear()
        SecurePersistencySimulator().run(store.get("mcf", 2000, 1), WARMUP)
        assert len(hierarchy_calls) == 4000


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
