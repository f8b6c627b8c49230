"""Regression tests for simulator accounting fixes.

Two bugs are pinned here:

* **Warmup stats contamination** — the shared StatsCollector kept
  counting through the warmup region, so PPTI/NWPE and the Fig. 8
  update ratios mixed warmup and measured ops, and ``stats["ppti"]``
  divided warmup-inclusive allocations by warmup-inclusive instructions
  while the result reported measured-region instructions.  Counters are
  now snapshot-and-subtracted at the warmup boundary.

* **Backflow over-commit** — the allocation stall loop could break out
  with the SecPB still (effectively) full when the watermark policy
  yielded no drain targets; a forced drain now guarantees progress and
  the buffer can never hold more slots than its capacity.
"""

import pytest

from repro.baselines.strict import StrictPersistencySimulator
from repro.core.schemes import SCHEMES, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.sim.config import SystemConfig
from repro.workloads.spec import build_trace
from repro.workloads.synthetic import uniform_trace, zipf_trace

WARMUP = 0.5


def _trace(num_ops=4000, seed=11):
    return zipf_trace(
        num_ops=num_ops,
        working_set_blocks=3000,
        zipf_alpha=0.8,
        store_fraction=0.6,
        burst_length=2,
        mean_gap=2.0,
        seed=seed,
        name="warmup-probe",
    )


def _measured_stores(trace, warmup_frac):
    warmup_ops = int(len(trace) * warmup_frac)
    return int(trace.is_store[warmup_ops:].sum())


class TestWarmupStatsExclusion:
    """Counters must cover only the measured region when warmup_frac > 0."""

    @pytest.fixture(params=["cm", "cobcm", None], ids=["cm", "cobcm", "bbb"])
    def result_and_trace(self, request):
        trace = _trace()
        scheme = get_scheme(request.param) if request.param else None
        sim = SecurePersistencySimulator(scheme=scheme)
        return sim.run(trace, WARMUP), trace

    def test_secpb_writes_equal_measured_region_stores(self, result_and_trace):
        # Every store increments secpb.writes exactly once, so the
        # corrected counter equals the store count after the boundary.
        result, trace = result_and_trace
        assert result.stats["secpb.writes"] == _measured_stores(trace, WARMUP)

    def test_instructions_stat_is_measured_region(self, result_and_trace):
        result, _ = result_and_trace
        assert result.stats["instructions"] == result.instructions

    def test_ppti_derived_from_measured_counters(self, result_and_trace):
        result, _ = result_and_trace
        expected = (
            1000.0 * result.stats["secpb.allocations"] / result.instructions
        )
        assert result.stats["ppti"] == pytest.approx(expected)

    def test_nwpe_derived_from_measured_counters(self, result_and_trace):
        result, _ = result_and_trace
        expected = result.stats["secpb.writes"] / result.stats["secpb.allocations"]
        assert result.stats["nwpe"] == pytest.approx(expected)

    def test_warmup_run_counts_less_than_full_run(self):
        trace = _trace()
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        full = sim.run(trace, 0.0)
        measured = sim.run(trace, WARMUP)
        assert measured.stats["secpb.writes"] < full.stats["secpb.writes"]
        assert (
            measured.stats["bmt.root_updates"] < full.stats["bmt.root_updates"]
        )

    def test_zero_warmup_unchanged(self):
        trace = _trace()
        sim = SecurePersistencySimulator(scheme=get_scheme("cm"))
        result = sim.run(trace, 0.0)
        assert result.stats["secpb.writes"] == int(trace.is_store.sum())
        assert result.stats["instructions"] == trace.instructions

    def test_strict_simulator_excludes_warmup_updates(self):
        trace = _trace()
        sim = StrictPersistencySimulator()
        full = sim.run(trace, 0.0)
        measured = sim.run(trace, WARMUP)
        # SP performs one root update + MAC per store.
        assert full.stats["bmt.root_updates"] == int(trace.is_store.sum())
        assert measured.stats["bmt.root_updates"] == _measured_stores(
            trace, WARMUP
        )
        assert measured.stats["instructions"] == measured.instructions


class TestBackflowOverCommit:
    """The SecPB must never hold more slots than its capacity."""

    def _run(self, entries, scheme_name, trace):
        config = SystemConfig().with_secpb_entries(entries)
        scheme = SCHEMES[scheme_name] if scheme_name else None
        sim = SecurePersistencySimulator(config=config, scheme=scheme)
        return sim.run(trace)

    @pytest.fixture
    def streaming_stores(self):
        # Distinct-address store stream: every store allocates, the worst
        # case for a tiny buffer.
        return uniform_trace(
            num_ops=1500,
            working_set_blocks=1500,
            store_fraction=0.9,
            mean_gap=1.0,
            seed=5,
            name="alloc-storm",
        )

    @pytest.mark.parametrize("scheme_name", SPECTRUM_ORDER + ["bbb"])
    def test_one_entry_secpb_never_over_commits(
        self, streaming_stores, scheme_name
    ):
        name = None if scheme_name == "bbb" else scheme_name
        result = self._run(1, name, streaming_stores)
        assert result.stats["secpb.peak_effective_occupancy"] <= 1
        assert result.stats["secpb.final_occupancy"] <= 1
        assert result.stats["secpb.allocations"] > 0

    @pytest.mark.parametrize("entries", [1, 2, 4, 32])
    def test_peak_occupancy_bounded_by_capacity(self, streaming_stores, entries):
        result = self._run(entries, "cobcm", streaming_stores)
        assert result.stats["secpb.peak_effective_occupancy"] <= entries

    def test_forced_drains_counted_when_watermark_policy_stalls(
        self, streaming_stores
    ):
        # With a 1-entry buffer the high watermark equals capacity and the
        # low watermark is 0; the in-flight drain of the previous entry
        # holds the only slot, so progress relies on the backflow wait (or
        # forced drain) path rather than silent over-commit.
        result = self._run(1, "nogap", streaming_stores)
        assert (
            result.stats.get("secpb.backflow_stalls", 0)
            + result.stats.get("secpb.forced_drains", 0)
        ) > 0


class TestWarmupPrefixOracle:
    """A warm run's counters are the full run's minus the prefix run's.

    ``run(trace, w)`` excludes the first ``int(len(trace) * w)`` ops, so
    every counter must equal ``run(trace, 0)`` minus ``run(prefix, 0)``,
    where ``prefix`` is those ops alone.  Both sides make the same
    additions, so the equality is exact for float sums too.  A store path
    whose local counts missed the warmup snapshot breaks it.  Gauges and
    the derived keys are not counters and are skipped.
    """

    NOT_COUNTERS = {
        "secpb.final_occupancy",
        "secpb.peak_effective_occupancy",
        "instructions",
        "ppti",
        "nwpe",
    }
    CONFIGS = ["bbb"] + SPECTRUM_ORDER + ["sp", "flush_strict"]

    @staticmethod
    def _simulator(name, entries):
        config = SystemConfig().with_secpb_entries(entries)
        if name == "sp":
            return StrictPersistencySimulator(config=config)
        if name == "flush_strict":
            return FlushBasedSimulator(PersistencyModel.STRICT, config=config)
        scheme = None if name == "bbb" else get_scheme(name)
        return SecurePersistencySimulator(config=config, scheme=scheme)

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            "gamess": build_trace("gamess", 3000, 1),
            "mcf": build_trace("mcf", 3000, 1),
            "warmup-probe": _trace(),
        }

    @pytest.mark.parametrize("trace_name", ["gamess", "mcf", "warmup-probe"])
    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_warm_counters_are_full_minus_prefix(self, traces, config_name, trace_name):
        trace = traces[trace_name]
        mismatches = []
        for entries in (32, 2):
            simulator = self._simulator(config_name, entries)
            full = simulator.run(trace, 0.0).stats
            for warmup in (0.3, 0.5):
                prefix = trace.head(int(len(trace) * warmup))
                before = simulator.run(prefix, 0.0).stats
                warm = simulator.run(trace, warmup).stats
                assert warm.keys() == full.keys(), (entries, warmup)
                for key in sorted(full.keys() - self.NOT_COUNTERS):
                    expected = full[key] - before.get(key, 0.0)
                    if warm[key] != expected:
                        mismatches.append((entries, warmup, key, warm[key], expected))
        assert not mismatches
