#!/usr/bin/env python3
"""BMT height reduction (Bonsai Merkle Forests) on top of SecPB.

Example-scale version of the paper's Fig. 9: the CM scheme pays a full
8-level BMT root update per SecPB entry; pairing it with DBMF (effective
height 2) or SBMF (height 5) cuts the eager latency, and even the SBMF
variant beats the strict-persistency state of the art with DBMF.

Run:  python examples/bmf_height_study.py  [num_ops]
"""

from __future__ import annotations

import sys

from repro import SecurePersistencySimulator, SystemConfig, build_trace, get_scheme
from repro.analysis.report import format_table
from repro.baselines.strict import StrictPersistencySimulator
from repro.sim.stats import geometric_mean

BENCHMARKS = ["gamess", "povray", "hmmer", "h264ref"]
WARMUP = 0.3


def main() -> None:
    num_ops = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    config = SystemConfig()
    traces = {name: build_trace(name, num_ops) for name in BENCHMARKS}
    bbb = SecurePersistencySimulator(config=config, scheme=None)
    baselines = {n: bbb.run(t, WARMUP) for n, t in traces.items()}

    def overhead(run_fn) -> float:
        slowdowns = [
            run_fn(trace).slowdown_vs(baselines[name])
            for name, trace in traces.items()
        ]
        return (geometric_mean(slowdowns) - 1.0) * 100.0

    cm = get_scheme("cm")

    def cm_runner(cut):
        # Each run starts from an empty BMF root cache.
        sim = SecurePersistencySimulator(
            config=config.with_bmf_cut(cut) if cut else config, scheme=cm
        )
        return lambda trace: sim.run(trace, WARMUP)

    def sp_runner(cut):
        sim = StrictPersistencySimulator(config=config.with_bmf_cut(cut))
        return lambda trace: sim.run(trace, WARMUP)

    rows = [
        ["cm (8 levels)", f"{overhead(cm_runner(None)):8.1f}%"],
        ["cm_dbmf (2 levels)", f"{overhead(cm_runner(2)):8.1f}%"],
        ["cm_sbmf (5 levels)", f"{overhead(cm_runner(5)):8.1f}%"],
        ["sp_dbmf (2 levels)", f"{overhead(sp_runner(2)):8.1f}%"],
        ["sp_sbmf (5 levels)", f"{overhead(sp_runner(5)):8.1f}%"],
    ]
    print(
        format_table(
            ["configuration", "overhead vs BBB"],
            rows,
            title=f"BMT height study over {BENCHMARKS} ({num_ops} refs each)",
        )
    )
    print(
        "\nthe paper's takeaway: height reduction pairs well with SecPB —"
        "\ncm_dbmf/cm_sbmf beat even sp_dbmf, so a battery-constrained"
        "\ndesign can pick CM + BMF instead of COBCM."
    )


if __name__ == "__main__":
    main()
