"""Quick smoke suite: the parallel experiment path on every PR.

Marked ``quick`` so CI (and `make smoke`) can exercise the runner
end-to-end in seconds: one small Table IV sweep through a process pool,
checked bit-identical against the serial reference, plus the CLI path
with ``--jobs 2``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_table4
from repro.analysis.runner import clear_result_memo
from repro.cli import main

pytestmark = pytest.mark.quick

SMOKE = dict(num_ops=2500, benchmarks=["gamess", "povray", "hmmer"])


def test_parallel_sweep_matches_serial(save_result):
    serial = run_table4(jobs=1, **SMOKE)
    clear_result_memo()  # or the parallel side is answered from it
    parallel = run_table4(jobs=2, **SMOKE)
    assert parallel.mean_overhead_pct == serial.mean_overhead_pct
    assert parallel.per_benchmark_pct == serial.per_benchmark_pct
    assert parallel.render() == serial.render()
    save_result("quick_smoke", parallel.render())


def test_cli_parallel_experiment_with_json_save(capsys, tmp_path):
    out_path = tmp_path / "table4.json"
    assert (
        main(
            [
                "experiment",
                "table4",
                "--num-ops",
                "1500",
                "--jobs",
                "2",
                "--save",
                str(out_path),
            ]
        )
        == 0
    )
    assert "cobcm" in capsys.readouterr().out
    saved = json.loads(out_path.read_text())
    assert saved["experiment"] == "table4"
    assert set(saved["mean_overhead_pct"]) >= {"cobcm", "nogap"}
