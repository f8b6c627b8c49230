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
  verification, and
* full multi-core results: BBB and every scheme over 1/2/4/8 cores and
  two SecPB sizes on sharing traces, plus a mix of unequal-length
  benchmark traces whose shortest core ends inside the warmup rounds, and
* a selection of the above at a calibration whose clock addends do not
  sum exactly (``INEXACT``), so a change of summation order shows.

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
from repro.core.controller import TimingCalibration
from repro.core.multicore import MultiCoreSecPBSimulator, sharing_traces
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
MULTICORE_CORES = (1, 2, 4, 8)
MULTICORE_ENTRIES = (2, 32)
MULTICORE_OPS = 1200
MULTICORE_SHARE = 0.5
MULTICORE_SEED = 3
MULTICORE_MIX = (("gamess", 3000), ("mcf", 800), ("povray", 2000))
MULTICORE_MIX_WARMUP = 0.5
INEXACT = TimingCalibration(cpi_base=0.1, load_blocking_fraction=0.3)
INEXACT_BENCHMARKS = ["hmmer", "gamess"]
INEXACT_SMALL_SECPB = ("povray", 2)
INEXACT_CORES = 4
INEXACT_MULTICORE_SCHEMES = ("cobcm", "cm")


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


def build_multicore() -> str:
    """Full multi-core results (makespan, per-core cycles, every counter)."""
    from repro.workloads.spec import build_trace

    schemes = [None] + [get_scheme(name) for name in SPECTRUM_ORDER]
    runs: Dict[str, dict] = {}
    for cores in MULTICORE_CORES:
        traces = sharing_traces(
            cores, MULTICORE_OPS, share_fraction=MULTICORE_SHARE, seed=MULTICORE_SEED
        )
        for entries in MULTICORE_ENTRIES:
            config = SystemConfig().with_secpb_entries(entries)
            for scheme in schemes:
                simulator = MultiCoreSecPBSimulator(cores, scheme, config)
                result = simulator.run(traces, WARMUP)
                runs[f"{result.scheme}/{cores}c/{entries}e"] = dataclasses.asdict(result)
    # The warmup counts rounds of the longest trace: mcf ends inside it.
    mix = [build_trace(benchmark, num_ops, 2) for benchmark, num_ops in MULTICORE_MIX]
    for scheme in schemes:
        simulator = MultiCoreSecPBSimulator(len(mix), scheme)
        result = simulator.run(mix, MULTICORE_MIX_WARMUP)
        runs[f"{result.scheme}/mix"] = dataclasses.asdict(result)
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def build_inexact() -> str:
    """Full results at ``INEXACT``, whose addends the clock cannot sum exactly.

    The default calibration's clock addends are multiples of small powers
    of two, so their sums are exact in any order; at ``INEXACT`` a change
    of summation order in the trace loop or in the backflow accounting
    moves the last ulp.  The runs: hmmer and gamess at Table I (BBB, the
    six schemes and SP), povray with a 2-entry SecPB (BBB and the six
    schemes; its backflow stalls are frequent) and 4-core sharing traces
    under COBCM and CM.
    """
    from repro.workloads.spec import build_trace

    schemes = [None] + [get_scheme(name) for name in SPECTRUM_ORDER]
    runs: Dict[str, dict] = {}
    for benchmark in INEXACT_BENCHMARKS:
        trace = build_trace(benchmark, NUM_OPS, SEED)
        for scheme in schemes:
            result = run_scheme(trace, scheme, calibration=INEXACT, warmup_frac=WARMUP)
            runs[f"{benchmark}/{result.scheme}"] = result_to_dict(result)
        result = StrictPersistencySimulator(calibration=INEXACT).run(trace, WARMUP)
        runs[f"{benchmark}/sp"] = result_to_dict(result)
    benchmark, entries = INEXACT_SMALL_SECPB
    trace = build_trace(benchmark, NUM_OPS, SEED)
    config = SystemConfig().with_secpb_entries(entries)
    for scheme in schemes:
        result = run_scheme(
            trace, scheme, config, calibration=INEXACT, warmup_frac=WARMUP
        )
        runs[f"{benchmark}/{result.scheme}/{entries}e"] = result_to_dict(result)
    traces = sharing_traces(
        INEXACT_CORES, MULTICORE_OPS, share_fraction=MULTICORE_SHARE, seed=MULTICORE_SEED
    )
    for name in INEXACT_MULTICORE_SCHEMES:
        simulator = MultiCoreSecPBSimulator(
            INEXACT_CORES, get_scheme(name), calibration=INEXACT
        )
        result = simulator.run(traces, WARMUP)
        runs[f"{result.scheme}/{INEXACT_CORES}c"] = dataclasses.asdict(result)
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


GOLDEN_BUILDERS = {
    "golden_table4.json": build_table4,
    "golden_fig8.json": build_fig8,
    "golden_runs.json": build_runs,
    "golden_baselines.json": build_baselines,
    "golden_multicore.json": build_multicore,
    "golden_inexact.json": build_inexact,
}


def regenerate() -> None:
    """(Re)write every golden file — see the module docstring for when."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, builder in GOLDEN_BUILDERS.items():
        (GOLDEN_DIR / filename).write_text(builder())
