"""Ablation: sensitivity of conclusions to the free timing constants.

DESIGN.md/docs/MODEL.md identify the model's free parameters (`cpi_base`,
`load_blocking_fraction`).  A reproduction's conclusions should not hinge
on their exact values: this sweep varies both across a 2x range and
checks that the scheme *ordering* and the BCM->CM cliff survive every
setting, even though absolute overheads move.
"""

from repro.analysis.report import format_table
from repro.core.controller import TimingCalibration
from repro.core.schemes import SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator
from repro.sim.stats import geometric_mean
from repro.workloads.spec import build_trace

from conftest import SWEEP_NUM_OPS

BENCHMARKS = ["gamess", "povray", "hmmer", "gcc", "mcf"]
WARMUP = 0.3
SETTINGS = [
    (0.25, 0.35),
    (0.5, 0.2),
    (0.5, 0.35),  # default
    (0.5, 0.5),
    (1.0, 0.35),
]


def run_sensitivity():
    results = {}
    traces = {name: build_trace(name, SWEEP_NUM_OPS) for name in BENCHMARKS}
    for cpi, blocking in SETTINGS:
        calibration = TimingCalibration(
            cpi_base=cpi, load_blocking_fraction=blocking
        )
        bbb = SecurePersistencySimulator(scheme=None, calibration=calibration)
        baselines = {n: bbb.run(t, WARMUP) for n, t in traces.items()}
        overheads = {}
        for name in SPECTRUM_ORDER:
            sim = SecurePersistencySimulator(
                scheme=get_scheme(name), calibration=calibration
            )
            slowdowns = [
                sim.run(trace, WARMUP).slowdown_vs(baselines[bench])
                for bench, trace in traces.items()
            ]
            overheads[name] = (geometric_mean(slowdowns) - 1.0) * 100.0
        results[(cpi, blocking)] = overheads
    return results


def test_conclusions_robust_to_calibration(benchmark, save_result):
    results = benchmark.pedantic(run_sensitivity, rounds=1, iterations=1)

    rows = []
    for (cpi, blocking), overheads in results.items():
        rows.append(
            [f"cpi={cpi}, blk={blocking}"]
            + [f"{overheads[name]:.0f}%" for name in SPECTRUM_ORDER]
        )
    rendered = format_table(
        ["calibration"] + SPECTRUM_ORDER,
        rows,
        title="ablation: free-parameter sensitivity (scheme geomeans)",
    )
    save_result("ablation_sensitivity", rendered)
    print("\n" + rendered)

    for setting, overheads in results.items():
        # The spectrum ordering survives every calibration.
        values = [overheads[name] for name in SPECTRUM_ORDER]
        assert all(a <= b + 1.0 for a, b in zip(values, values[1:])), setting
        # The BCM -> CM cliff (BMT root exposure) survives too.
        assert overheads["cm"] > 2.0 * max(overheads["bcm"], 1.0), setting
        # Lazy schemes stay near-free.
        assert overheads["cobcm"] < 15.0, setting
