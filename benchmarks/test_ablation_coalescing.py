"""Ablation: the data-value-independent coalescing optimization (Sec. IV-A).

The paper's key optimization runs counter/OTP/BMT-root updates once per
dirty-block residency instead of once per store.  This ablation disables
it for the eager schemes and measures the cost — the paper predicts it is
"especially impactful for NoGap/M/CM, which without the optimization,
would update BMT root often".
"""

import dataclasses

from repro.analysis.report import format_table
from repro.core.schemes import get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.sim.config import SystemConfig
from repro.sim.stats import geometric_mean
from repro.workloads.spec import build_trace

from conftest import SWEEP_NUM_OPS

BENCHMARKS = ["povray", "h264ref", "hmmer", "astar", "cactusADM", "gamess"]
WARMUP = 0.3


def run_ablation():
    bbb = SecurePersistencySimulator(scheme=None)
    traces = {name: build_trace(name, SWEEP_NUM_OPS) for name in BENCHMARKS}
    baselines = {n: bbb.run(t, WARMUP) for n, t in traces.items()}

    results = {}
    table1 = SystemConfig()
    for scheme_name in ("cm", "m", "nogap"):
        for coalescing in (True, False):
            config = dataclasses.replace(
                table1,
                secpb=dataclasses.replace(
                    table1.secpb, value_independent_coalescing=coalescing
                ),
            )
            sim = SecurePersistencySimulator(config, get_scheme(scheme_name))
            slowdowns = [
                sim.run(trace, WARMUP).slowdown_vs(baselines[name])
                for name, trace in traces.items()
            ]
            key = scheme_name + ("" if coalescing else "_nocoalesce")
            results[key] = (geometric_mean(slowdowns) - 1.0) * 100.0
    return results


def test_ablation_value_independent_coalescing(benchmark, save_result):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = [
        [
            name,
            f"{results[name]:.1f}%",
            f"{results[name + '_nocoalesce']:.1f}%",
            f"{(100 + results[name + '_nocoalesce']) / (100 + results[name]):.2f}x",
        ]
        for name in ("cm", "m", "nogap")
    ]
    rendered = format_table(
        ["scheme", "with coalescing", "without", "slowdown factor"],
        rows,
        title="ablation: Sec. IV-A value-independent coalescing",
    )
    save_result("ablation_coalescing", rendered)
    print("\n" + rendered)

    # The optimization must matter for every eager scheme, most for the
    # ones with high-NWPE workloads in the mix.
    for name in ("cm", "m", "nogap"):
        assert results[name + "_nocoalesce"] > results[name] * 1.5
