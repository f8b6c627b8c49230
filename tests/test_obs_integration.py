"""Integration tests: tracing/metrics wired through simulator, crash,
runner and campaign.

The two load-bearing guarantees:

* **Zero feedback** — a traced run returns results byte-identical to an
  untraced one; tracing observes the timeline, it never participates.
* **Fig. 4 visibility** — an M-scheme event stream shows the early/late
  metadata split per drained entry (early steps priced at accept, the
  MAC deferred to the drain).
"""

import json
import logging

import pytest

from repro.analysis.runner import clear_result_memo
from repro.core.schemes import get_scheme
from repro.core.simulator import SecurePersistencySimulator, run_scheme
from repro.fault import CampaignSpec, run_campaign
from repro.obs import MetricsRegistry, Tracer, load_trace_schema, validate
from repro.workloads.spec import build_trace

NUM_OPS = 2000


def traced_run(scheme_name, tracer, num_ops=NUM_OPS):
    trace = build_trace("gamess", num_ops, 1)
    scheme = None if scheme_name == "bbb" else get_scheme(scheme_name)
    simulator = SecurePersistencySimulator(scheme=scheme, tracer=tracer)
    return simulator.run(trace, 0.0)


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize("scheme_name", ["bbb", "m", "cobcm"])
    def test_identical_results(self, scheme_name):
        untraced = traced_run(scheme_name, None)
        traced = traced_run(scheme_name, Tracer())
        assert traced == untraced

    def test_warmup_path_identical(self):
        trace = build_trace("gamess", NUM_OPS, 1)
        scheme = get_scheme("cm")
        untraced = run_scheme(trace, scheme, warmup_frac=0.3)
        traced = run_scheme(trace, scheme, warmup_frac=0.3, tracer=Tracer())
        assert traced == untraced


class TestFig4Split:
    def test_m_scheme_early_late_split(self):
        tracer = Tracer()
        traced_run("m", tracer)
        accepts = [e for e in tracer.events if e["name"] == "secpb.accept"]
        drains = [e for e in tracer.events if e["name"] == "secpb.drain"]
        assert accepts and drains
        for event in accepts:
            assert event["args"]["early_steps"] == [
                "counter",
                "otp",
                "bmt_root",
                "ciphertext",
            ]
        for event in drains:
            assert event["args"]["late_steps"] == ["mac"]

    def test_cobcm_defers_everything(self):
        tracer = Tracer()
        traced_run("cobcm", tracer)
        drains = [e for e in tracer.events if e["name"] == "secpb.drain"]
        assert drains
        assert drains[0]["args"]["late_steps"] == [
            "counter",
            "otp",
            "bmt_root",
            "ciphertext",
            "mac",
        ]

    def test_bbb_has_no_metadata_steps(self):
        tracer = Tracer()
        traced_run("bbb", tracer)
        accepts = [e for e in tracer.events if e["name"] == "secpb.accept"]
        assert accepts
        assert all(e["args"]["early_steps"] == [] for e in accepts)

    def test_coalesce_reprices_value_dependent_steps_only(self):
        tracer = Tracer()
        traced_run("m", tracer)
        coalesces = [e for e in tracer.events if e["name"] == "secpb.coalesce"]
        assert coalesces
        # M's eager value-dependent work is the ciphertext; the MAC is late.
        assert all(
            e["args"]["early_steps"] == ["ciphertext"] for e in coalesces
        )


class TestAcceptCounterMiss:
    """A traced accept's ``counter_miss`` flag marks exactly one CTR$ miss."""

    @pytest.mark.parametrize("scheme_name", ["obcm", "bcm", "cm", "m", "nogap"])
    def test_flags_number_the_counter_misses(self, scheme_name):
        tracer = Tracer()
        result = traced_run(scheme_name, tracer, num_ops=4000)
        flagged = [
            e
            for e in tracer.events
            if e["name"] == "secpb.accept" and e["args"]["counter_miss"]
        ]
        assert flagged
        assert len(flagged) == result.stats["mdc.counter.misses"]

    @pytest.mark.parametrize("scheme_name", ["bbb", "cobcm"])
    def test_no_early_counter_no_flag(self, scheme_name):
        tracer = Tracer()
        traced_run(scheme_name, tracer, num_ops=4000)
        accepts = [e for e in tracer.events if e["name"] == "secpb.accept"]
        assert accepts
        assert not any(e["args"]["counter_miss"] for e in accepts)


class TestChromeRoundTrip:
    def test_export_loads_and_validates(self, tmp_path):
        tracer = Tracer()
        traced_run("m", tracer, num_ops=800)
        out = tmp_path / "trace.json"
        tracer.save_chrome(out)
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate(payload, load_trace_schema()) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases >= {"M", "X", "C"}

    def test_timestamps_are_simulated_cycles(self):
        tracer = Tracer()
        result = traced_run("m", tracer, num_ops=800)
        slices = [e for e in tracer.events if e["ph"] == "X"]
        assert all(0 <= e["ts"] <= result.cycles * 1.1 for e in slices)
        assert all(e["dur"] >= 0 for e in slices)


class TestCrashRecoveryEvents:
    def _system(self, tracer=None, budget=None):
        from repro.core.crash import SecurePersistentSystem

        system = SecurePersistentSystem(get_scheme("cobcm"), tracer=tracer)
        for i in range(10):
            system.store(i, bytes([i]) * 64)
        report = system.crash(energy_budget_nj=budget)
        recovery = system.recover()
        return report, recovery

    def test_traced_crash_identical_to_untraced(self):
        untraced_report, untraced_recovery = self._system()
        traced_report, traced_recovery = self._system(tracer=Tracer())
        assert traced_report == untraced_report
        assert traced_recovery.verdict == untraced_recovery.verdict

    def test_full_drain_event_sequence(self):
        tracer = Tracer()
        report, _ = self._system(tracer=tracer)
        names = [e["name"] for e in tracer.events]
        assert names[0] == "crash.begin"
        assert names.count("crash.drain") == report.entries_drained == 10
        assert "crash.brownout" not in names
        for expected in ("crash.end", "recovery.begin", "recovery.end"):
            assert expected in names

    def test_brownout_emits_lost_block_count(self):
        tracer = Tracer()
        report, _ = self._system(tracer=tracer, budget=50.0)
        brownouts = [e for e in tracer.events if e["name"] == "crash.brownout"]
        (event,) = brownouts
        assert event["args"]["lost_blocks"] == len(report.unpersisted_blocks)
        ends = [e for e in tracer.events if e["name"] == "crash.end"]
        assert ends[0]["args"]["verdict"] == "partial"

    def test_crash_events_validate_against_schema(self):
        tracer = Tracer()
        self._system(tracer=tracer, budget=50.0)
        assert validate(tracer.to_chrome(), load_trace_schema()) == []


class TestCampaignMetrics:
    SPEC = dict(schemes=("m",), crash_points=2, num_stores=30)

    def _run(self, jobs):
        registry = MetricsRegistry()
        report = run_campaign(
            CampaignSpec(**self.SPEC),
            jobs=jobs,
            minimize=False,
            metrics=registry,
        )
        return report, registry

    def test_verdict_counters_match_report(self):
        report, registry = self._run(jobs=1)
        passed = len(report.results) - len(report.failures)
        assert registry.get("campaign.cases_passed").value == float(passed)
        assert registry.get("campaign.cases_total").value == float(
            report.total
        )
        assert registry.get("campaign.pass_rate").value == pytest.approx(
            passed / report.total
        )

    def test_snapshot_deterministic_across_worker_counts(self):
        _, serial = self._run(jobs=1)
        clear_result_memo()
        _, parallel = self._run(jobs=4)
        assert serial.snapshot() == parallel.snapshot()
        # The wall-clock histogram exists but is excluded from snapshots.
        assert not serial.get("runner.task_seconds").deterministic

    def test_heartbeat_logged_at_info(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.fault.campaign"):
            self._run(jobs=1)
        assert "campaign progress" in caplog.text

    def test_runner_counters_accumulate(self):
        report, registry = self._run(jobs=1)
        assert registry.get("runner.tasks_completed").value == float(
            report.total
        )
        assert registry.get("runner.tasks_total").value == float(report.total)

    def test_tracer_gets_one_job_event_per_case(self):
        tracer = Tracer(clock_unit="seconds")
        report = run_campaign(
            CampaignSpec(**self.SPEC),
            jobs=1,
            minimize=False,
            tracer=tracer,
        )
        jobs = [e for e in tracer.events if e["name"] == "runner.job"]
        assert len(jobs) == report.total


class TestExperimentMetrics:
    def test_runner_metrics_through_runner_opts(self):
        from repro.analysis.experiments import run_table4

        registry = MetricsRegistry()
        result = run_table4(
            num_ops=1500,
            benchmarks=["gamess", "povray"],
            runner_opts={"metrics": registry},
        )
        assert result.mean_overhead_pct
        # 2 benchmarks x (1 baseline + 6 schemes) = 14 jobs.
        assert registry.get("runner.tasks_completed").value == 14.0
        assert registry.get("runner.tasks_failed") is None

    def test_metrics_identical_across_jobs(self):
        from repro.analysis.experiments import run_table4

        snapshots = []
        for jobs in (1, 2):
            clear_result_memo()  # both worker counts must simulate
            registry = MetricsRegistry()
            run_table4(
                num_ops=1500,
                benchmarks=["gamess", "povray"],
                jobs=jobs,
                runner_opts={"metrics": registry},
            )
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1]
