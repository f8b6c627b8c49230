"""Observability smoke: one instrumented experiment on every PR.

Marked ``quick`` so CI (and ``make ci``) exercises the whole PR 6
surface in seconds: a traced simulation whose Chrome export validates
against the checked-in schema, a metrics-instrumented sweep whose
Prometheus text parses, and the zero-feedback guarantee (traced run ==
untraced run) at the same trace scale the hot-loop gate uses — the
tracing-off throughput itself is covered by
``test_simulator_hot_loop.py``, which runs the simulator with no tracer
bound under the same ``SECPB_HOTLOOP_OPS`` budget.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.runner import clear_result_memo
from repro.cli import main
from repro.core.schemes import get_scheme
from repro.core.simulator import run_scheme
from repro.obs import MetricsRegistry, Tracer, load_trace_schema, validate
from repro.workloads.spec import build_trace

pytestmark = pytest.mark.quick

SMOKE_OPS = min(int(os.environ.get("SECPB_HOTLOOP_OPS", "40000")), 4000)


def test_traced_run_is_byte_identical():
    trace = build_trace("gamess", SMOKE_OPS, 1)
    scheme = get_scheme("m")
    untraced = run_scheme(trace, scheme)
    tracer = Tracer()
    traced = run_scheme(trace, scheme, tracer=tracer)
    assert traced == untraced
    assert tracer.events  # the run actually emitted a timeline


def test_instrumented_experiment_cli(tmp_path, capsys):
    trace_path = tmp_path / "table4-trace.json"
    metrics_path = tmp_path / "table4.prom"
    assert (
        main(
            [
                "experiment", "table4",
                "--num-ops", "1500",
                "--jobs", "2",
                "--metrics", str(metrics_path),
                "--trace", str(trace_path),
            ]
        )
        == 0
    )
    assert "cobcm" in capsys.readouterr().out
    payload = json.loads(trace_path.read_text())
    assert validate(payload, load_trace_schema()) == []
    text = metrics_path.read_text()
    assert "# TYPE runner_tasks_completed counter" in text
    assert "runner_task_seconds_bucket" in text


def test_trace_subcommand_schema_and_prometheus(tmp_path, capsys):
    out = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    assert (
        main(
            [
                "trace",
                "--benchmark", "gamess",
                "--scheme", "m",
                "--num-ops", str(SMOKE_OPS),
                "--out", str(out),
                "--metrics", str(metrics),
            ]
        )
        == 0
    )
    assert "trace event(s)" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert validate(payload, load_trace_schema()) == []
    # The Fig. 4 split is visible in the exported stream: early steps on
    # accepts, the deferred MAC on drains.
    events = payload["traceEvents"]
    accepts = [e for e in events if e["name"] == "secpb.accept"]
    drains = [e for e in events if e["name"] == "secpb.drain"]
    assert accepts and drains
    assert accepts[0]["args"]["early_steps"][-1] == "ciphertext"
    assert drains[0]["args"]["late_steps"] == ["mac"]
    lines = metrics.read_text().splitlines()
    assert any(line.startswith("sim_cycles ") for line in lines)


def test_metrics_deterministic_across_worker_counts():
    from repro.analysis.experiments import run_table4

    snapshots = []
    for jobs in (1, 2):
        clear_result_memo()  # both worker counts must simulate
        registry = MetricsRegistry()
        run_table4(
            num_ops=1500,
            benchmarks=["gamess", "hmmer"],
            jobs=jobs,
            runner_opts={"metrics": registry},
        )
        snapshots.append(registry.snapshot())
    assert snapshots[0] == snapshots[1]
