"""Golden-output specification shared by the equivalence test and tooling.

The hot-path optimization work (ISSUE 3) carries a hard guarantee: the
simulator may get faster, but every serialized artifact must stay
**byte-identical**.  This module pins down exactly what "the artifact"
means: canonical JSON renderings of

* a small Table IV sweep (all six schemes + the BBB baseline),
* a small Fig. 8 sweep (BMT root updates per scheme), and
* one full :class:`~repro.sim.stats.SimulationResult` per scheme + BBB,
  including the complete raw counter dictionary, and
* the same full results for the other single-core timing models: the SP
  baseline (full height and Fig. 9's BMF cuts), flush-based persistency
  (strict and epoch, plain and secure) and CM without speculative
  verification.

``tests/data/golden_*.json`` are the checked-in references, produced by
``tools/regen_golden.py`` *before* an optimization lands.  The test in
:mod:`tests.test_golden_output` re-runs the same sweeps (serial and with
a 4-worker pool) and compares bytes.  Regenerating the goldens is only
legitimate when a PR intentionally changes simulator semantics — never
as part of a performance change.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict

from repro.analysis.experiments import run_fig8, run_table4
from repro.analysis.serialize import result_to_dict
from repro.baselines.strict import StrictPersistencySimulator
from repro.core.schemes import CM, SPECTRUM_ORDER, get_scheme
from repro.core.simulator import SecurePersistencySimulator, run_scheme
from repro.persistency.flush import FlushBasedSimulator, PersistencyModel
from repro.security.bmf import ForestTimingModel
from repro.sim.config import SystemConfig

GOLDEN_DIR = Path(__file__).parent / "data"

NUM_OPS = 2500
SEED = 7
WARMUP = 0.3
BENCHMARKS = ["gamess", "povray", "hmmer"]
RUNS_BENCHMARK = "hmmer"
BASELINE_BENCHMARKS = ["hmmer", "gamess"]


def canonical_json(result) -> str:
    """Canonical byte representation of one experiment result."""
    return json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"


def build_table4(jobs: int = 1) -> str:
    return canonical_json(
        run_table4(num_ops=NUM_OPS, seed=SEED, benchmarks=BENCHMARKS, jobs=jobs)
    )


def build_fig8(jobs: int = 1) -> str:
    return canonical_json(
        run_fig8(num_ops=NUM_OPS, seed=SEED, benchmarks=BENCHMARKS, jobs=jobs)
    )


def build_runs() -> str:
    """One full SimulationResult (cycles + every raw counter) per scheme."""
    from repro.workloads.spec import build_trace

    trace = build_trace(RUNS_BENCHMARK, NUM_OPS, SEED)
    runs: Dict[str, dict] = {}
    for name in [None] + SPECTRUM_ORDER:
        scheme = get_scheme(name) if name is not None else None
        result = run_scheme(trace, scheme, warmup_frac=WARMUP)
        runs[result.scheme] = result_to_dict(result)
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def _baseline_simulators() -> Dict[str, object]:
    """Fresh simulators for every non-SecPB model (and non-speculative CM)."""
    config = SystemConfig()
    nonspec = dataclasses.replace(
        config,
        security=dataclasses.replace(config.security, speculative_verification=False),
    )

    def forest(cut_height: int):
        return ForestTimingModel(
            full_height=config.security.bmt_levels,
            cut_height=cut_height,
            root_cache_bytes=4096,
        ).levels

    simulators: Dict[str, object] = {
        "sp": StrictPersistencySimulator(),
        "sp_dbmf": StrictPersistencySimulator(bmt_levels_fn=forest(2)),
        "sp_sbmf": StrictPersistencySimulator(bmt_levels_fn=forest(5)),
    }
    for model in (PersistencyModel.STRICT, PersistencyModel.EPOCH):
        for secure in (False, True):
            flush = FlushBasedSimulator(model, epoch_stores=32, secure=secure)
            simulators[flush.scheme_name] = flush
    simulators["cm_nonspec"] = SecurePersistencySimulator(config=nonspec, scheme=CM)
    return simulators


def build_baselines() -> str:
    """Full results of SP, flush-based persistency and non-speculative CM."""
    from repro.workloads.spec import build_trace

    runs: Dict[str, dict] = {}
    for benchmark in BASELINE_BENCHMARKS:
        trace = build_trace(benchmark, NUM_OPS, SEED)
        for label, simulator in _baseline_simulators().items():
            result = simulator.run(trace, WARMUP)
            runs[f"{benchmark}/{label}"] = result_to_dict(result)
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


GOLDEN_BUILDERS = {
    "golden_table4.json": build_table4,
    "golden_fig8.json": build_fig8,
    "golden_runs.json": build_runs,
    "golden_baselines.json": build_baselines,
}


def regenerate() -> None:
    """(Re)write every golden file — see the module docstring for when."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, builder in GOLDEN_BUILDERS.items():
        (GOLDEN_DIR / filename).write_text(builder())
