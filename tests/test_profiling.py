"""``repro profile``: the front end is timed apart, and counter calls stay few."""

from repro.analysis.profiling import profile_simulation
from repro.core.schemes import CM
from repro.core.simulator import run_scheme
from repro.workloads.spec import build_trace


def test_profiled_run_equals_run_scheme_and_reports_front_end():
    report = profile_simulation("gamess", CM, num_ops=2000, seed=1, warmup_frac=0.3)
    expected = run_scheme(build_trace("gamess", 2000, 1), CM, warmup_frac=0.3)
    assert report.result == expected
    assert report.front_end_seconds > 0.0
    assert "\nhierarchy front end: " in report.render()


def test_cm_store_path_counts_in_locals():
    """CM makes at most 1.5 calls per op into repro/sim/stats.py.

    The store path keeps its per-store counts in locals and adds them once
    per sync; one per-event counter put back on the path exceeds the bound.
    """
    report = profile_simulation("gamess", CM, num_ops=8000, seed=1)
    assert 0 < report.counter_calls <= 1.5 * report.num_ops
    assert f"\ncounter calls: {report.counter_calls:,} " in report.render()
