"""``repro profile``: the front end and load schedule are timed apart, and
counter calls stay few."""

from repro.analysis.profiling import profile_simulation
from repro.core import simulator
from repro.core.schemes import CM
from repro.core.simulator import SecurePersistencySimulator, run_scheme
from repro.sim import hierarchy
from repro.workloads.spec import build_trace


def test_profiled_run_equals_run_scheme_and_reports_front_end():
    report = profile_simulation("gamess", CM, num_ops=2000, seed=1, warmup_frac=0.3)
    expected = run_scheme(build_trace("gamess", 2000, 1), CM, warmup_frac=0.3)
    assert report.result == expected
    assert report.front_end_seconds > 0.0
    assert report.schedule_seconds > 0.0
    assert "\nhierarchy front end: " in report.render()
    assert ", load schedule: " in report.render()


def test_timed_runs_build_no_replay_and_no_schedule(monkeypatch):
    """Both timed runs start warm: they time only the loop and the store path."""
    events = []

    def recorded(owner, name, event):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    recorded(hierarchy, "_replay", "replay")
    recorded(simulator, "_build_load_schedule", "schedule")
    recorded(SecurePersistencySimulator, "run", "run")
    profile_simulation("mcf", CM, num_ops=2000, seed=1, warmup_frac=0.3)
    assert events == ["replay", "schedule", "run", "run"]


def test_cm_store_path_counts_in_locals():
    """CM makes at most 1 call per op into repro/sim/stats.py.

    The store path keeps its per-store counts in locals and adds them once
    per sync, and adds its acceptance-cycle sums inline on the collector's
    mapping; what remains are the CTR$ hit/miss counters (about 0.7 per
    op).  One per-store counter call put back on the path exceeds the
    bound.
    """
    report = profile_simulation("gamess", CM, num_ops=8000, seed=1)
    assert 0 < report.counter_calls <= 1.0 * report.num_ops
    assert f"\ncounter calls: {report.counter_calls:,} " in report.render()
