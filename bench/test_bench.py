"""Smoke test of the benchmark: every workload at a tiny size.

The sizes are passed to ``run.measure`` as a function argument; the
benchmark itself has no scale knob.  Each workload runs once untraced
and once traced, in fresh unit interpreters, as ``bench/run.py`` does.
"""

import json
import os
from pathlib import Path

import pytest

import run

SMOKE = {
    "repro-serial": {"num_ops": 200, "benchmarks": ["gamess", "mcf"]},
    "repro-parallel": {"num_ops": 200, "benchmarks": ["gamess", "mcf"]},
    "simloop-stores": {"num_ops": 1000},
    "simloop-loads": {"num_ops": 1000},
}

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    measured = {
        (workload, trace): run.measure(workload, 1, 0, trace, out_dir, size)
        for workload, size in SMOKE.items()
        for trace in (0, 1)
    }
    return out_dir, measured


def test_workloads_match_declaration():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_metric_names_match_declaration(runs, workload):
    _, measured = runs
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = measured[(workload, trace)]
        assert result["correct"], detail["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared


def test_digests_agree(runs):
    _, measured = runs
    for workload in SMOKE:
        assert measured[(workload, 0)][1]["digest"] == measured[(workload, 1)][1]["digest"]
    assert (measured[("repro-serial", 0)][1]["digest"]
            == measured[("repro-parallel", 0)][1]["digest"])


def test_trace_is_schema_valid(runs):
    from repro.obs.schema import load_trace_schema, validate_or_raise

    out_dir, _ = runs
    for workload in SMOKE:
        trace = json.loads((out_dir / workload / "trace.json").read_text())
        validate_or_raise(trace, load_trace_schema())
        names = {event["name"] for event in trace["traceEvents"]}
        assert "bench.unit" in names


def test_no_shared_memory_left(runs):
    _, measured = runs
    pids = [pid for _, detail in measured.values() for pid in detail["unit_pids"]]
    shm = Path("/dev/shm")
    left = [p.name for p in shm.iterdir() for pid in pids
            if p.name.startswith(f"secpb_shm_{pid}_")] if shm.is_dir() else []
    assert left == []


def test_parallel_uses_the_pool(runs):
    _, measured = runs
    layers = measured[("repro-parallel", 1)][0]["metrics"]
    if run.workers_for("repro-parallel") > 1:
        assert layers["runtime.pool.batches"]["value"] > 0
        assert layers["runtime.shm.segments"]["value"] == 2
    serial = measured[("repro-serial", 1)][0]["metrics"]
    assert serial["runtime.pool.batches"]["value"] == 0
    assert serial["sim.cache.calls"]["value"] > 0


def test_seed_changes_inputs(runs, tmp_path):
    seed1 = runs[1][("simloop-stores", 0)]
    seed2 = run.measure("simloop-stores", 2, 0, 0, tmp_path, SMOKE["simloop-stores"])
    assert seed2[0]["correct"]
    assert seed1[1]["digest"] != seed2[1]["digest"]
    mae = [detail["paper_mae_pp"] for _, detail in (seed1, seed2)]
    assert mae[0] != mae[1]


def test_refuses_without_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "repro-serial", "--seed", "1"]) == 2
    assert not os.listdir(tmp_path)
