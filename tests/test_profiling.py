"""``repro profile``: the hierarchy front end is timed apart from the runs."""

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
