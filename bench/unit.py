"""One measured unit of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per unit and writes a JSON spec to its
standard input::

    {"workload": "repro-serial", "seed": 1, "traced": false,
     "size": null, "out_dir": ".bench_out/repro-serial"}

``size`` is ``null`` for the sizes below; the smoke test passes smaller
ones.  The unit imports the program from ``src/`` (as ``tools/`` does),
sets up its inputs, runs the timed region once and prints one JSON line
with its measurements.  A traced unit also writes ``trace.json`` into
``out_dir`` and reports per-layer metrics.

Workloads (all closed-loop batch jobs with one client):

* ``repro-serial`` / ``repro-parallel``: regenerate the seven paper
  artifacts (Tables IV-VI, Figs. 6-9) over all 18 benchmarks, with
  ``jobs=1`` / ``jobs=nproc``, writing each through ``write_artifact``.
* ``simloop-stores`` / ``simloop-loads``: one trace (gamess, store-heavy
  with an L1-resident hot set / mcf, a load-heavy pointer chase larger
  than the LLC) through nine simulator configurations, three interleaved
  passes, in-process, with no runner.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from the first line

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

ARTIFACTS = ("table4", "fig6", "table5", "table6", "fig7", "fig8", "fig9")
ENERGY_ARTIFACTS = ("table5", "table6")
SIMLOOP_CONFIGS = ("bbb", "cobcm", "obcm", "bcm", "cm", "m", "nogap", "sp", "flush")
SIMLOOP_PASSES = 3

WORKLOADS = {
    "repro-serial": {"kind": "repro", "parallel": False},
    "repro-parallel": {"kind": "repro", "parallel": True},
    "simloop-stores": {"kind": "simloop", "benchmark": "gamess"},
    "simloop-loads": {"kind": "simloop", "benchmark": "mcf"},
}
"""Workload name -> what it runs.  The names are fixed: results cite them."""

SIZES = {
    "repro-serial": {"num_ops": 2000, "benchmarks": None},
    "repro-parallel": {"num_ops": 2000, "benchmarks": None},
    "simloop-stores": {"num_ops": 20000},
    "simloop-loads": {"num_ops": 12000},
}
"""Refs per trace (``benchmarks: None`` is all 18).  Chosen so that one
unit takes 2-5 s on a 2-core host and a 30 s run fits 4 to 24 units."""


def workers_for(workload):
    """Pool workers: every CPU this process may use, or 1 for serial."""
    if WORKLOADS[workload].get("parallel"):
        return len(os.sched_getaffinity(0))
    return 1


def _peak_rss_mb():
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _result_record(result):
    return [result.scheme, result.benchmark, result.cycles, result.instructions,
            sorted(result.stats.items())]


def _mae(pairs):
    """Mean absolute difference over ``(measured, paper)`` pairs."""
    return statistics.fmean(abs(measured - paper) for measured, paper in pairs)


def repro_anchor_pairs(artifacts):
    """The 15 timing anchors of ``analysis/paper_values.py``.

    Table IV x6, Fig. 7 x2 and the Fig. 8 size anchors x2 (both from the
    Fig. 7 sweep), and Fig. 9 x5: its four BMF variants plus its CM bar,
    whose paper value is Table IV's.
    """
    from repro.analysis import paper_values as paper

    table4, fig7, fig9 = artifacts["table4"], artifacts["fig7"], artifacts["fig9"]
    pairs = [(table4.mean_overhead_pct[s], v) for s, v in paper.TABLE4_SLOWDOWN_PCT.items()]
    pairs += [(fig7.overhead_pct[n], v) for n, v in paper.FIG7_CM_OVERHEAD_PCT.items()]
    pairs += [
        (fig7.bmt_updates_vs_secwt_pct[n], v)
        for n, v in paper.FIG8_BMT_REDUCTION_PCT.items()
    ]
    fig9_paper = dict(paper.FIG9_OVERHEAD_PCT, cm=paper.TABLE4_SLOWDOWN_PCT["cm"])
    pairs += [(fig9.mean_overhead_pct[s], v) for s, v in fig9_paper.items()]
    return pairs


def _distinct_key(job):
    """What determines a simulation's result, with defaults resolved."""
    from repro.core.controller import TimingCalibration
    from repro.sim.config import SystemConfig

    spec = job.spec
    config = spec.config if spec.config is not None else SystemConfig()
    if spec.secpb_entries is not None:
        config = config.with_secpb_entries(spec.secpb_entries)
    calibration = spec.calibration if spec.calibration is not None else TimingCalibration()
    return (job.benchmark, job.num_ops, job.seed, job.warmup_frac, spec.simulator,
            spec.scheme, spec.bmf_cut,
            spec.root_cache_bytes if spec.bmf_cut is not None else None,
            config, calibration)


class _NoSpans:
    """Stand-in for :class:`spans.Spans` in untraced units."""

    def span(self, layer, args=None):
        return contextlib.nullcontext()


def run_repro(seed, workers, size, spans=None):
    """Regenerate every artifact once; returns the unit's measurements."""
    from repro.analysis import experiments
    from repro.analysis.runner import JobFailure
    from repro.durability import ArtifactStatus, verify_artifact, write_artifact
    from repro.obs import MetricsRegistry, Tracer
    from repro.runtime.pool import shutdown_shared_pool
    from repro.runtime.shm import cleanup_shared_registry, shared_registry

    recorder = spans if spans is not None else _NoSpans()
    calls = []
    run_jobs = experiments.run_jobs

    def recording_run_jobs(job_list, **kwargs):
        job_list = list(job_list)
        results = run_jobs(job_list, **kwargs)
        calls.append((job_list, results))
        failures = [r for r in results.values() if isinstance(r, JobFailure)]
        if failures:
            raise RuntimeError(f"{len(failures)} job(s) failed: {failures[0]}")
        return results

    experiments.run_jobs = recording_run_jobs
    runner_opts = None
    if spans is not None:
        from repro.analysis import runner

        experiments.run_jobs = spans.emitted("analysis.runner", recording_run_jobs)
        registry = MetricsRegistry()
        runner_tracer = Tracer(process_name="runner", clock_unit="s")
        runner_opts = {"metrics": registry, "tracer": runner_tracer}
        # The runner stamps job events relative to each run_tasks call;
        # note when each call starts so they can join the unit's timeline.
        run_tasks = runner.run_tasks
        task_origins = []

        def noting_run_tasks(*args, **kwargs):
            task_origins.append(
                (len(runner_tracer.events), time.perf_counter() - spans.origin)
            )
            return run_tasks(*args, **kwargs)

        runner.run_tasks = noting_run_tasks
    timing_kwargs = {
        "num_ops": size["num_ops"], "seed": seed, "benchmarks": size["benchmarks"],
        "jobs": workers, "runner_opts": runner_opts,
    }
    out_dir = Path(tempfile.mkdtemp(prefix="artifacts-"))
    artifacts, texts, failed = {}, {}, 0
    bytes_written = 0
    setup_s = time.perf_counter() - _STARTED
    start = time.perf_counter()
    with recorder.span("bench.unit"):
        for name in ARTIFACTS:
            energy = name in ENERGY_ARTIFACTS
            try:
                with recorder.span(
                    "energy.estimate" if energy else "analysis.experiments",
                    {"artifact": name},
                ):
                    result = experiments.run_experiment(
                        name, **({} if energy else timing_kwargs)
                    )
                with recorder.span("analysis.report.render", {"artifact": name}):
                    text = result.render()
                with recorder.span("durability.write", {"artifact": name}):
                    path = write_artifact(out_dir / f"{name}.txt", text)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if verify_artifact(path) is not ArtifactStatus.OK:
                print(f"artifact {name} failed verification", file=sys.stderr)
                failed += 1
                continue
            artifacts[name], texts[name] = result, text
            bytes_written += len(text.encode("utf-8"))
    wall_s = time.perf_counter() - start
    shm_stats = shared_registry().stats()
    shutdown_shared_pool()
    cleanup_shared_registry()
    shutil.rmtree(out_dir)

    digest = hashlib.sha256()
    for name in ARTIFACTS:
        digest.update(f"{name}\0{texts.get(name, '')}\0".encode("utf-8"))
    submitted = sum(len(job_list) for job_list, _ in calls)
    anchors = repro_anchor_pairs(artifacts) if not failed else []
    unit = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "refs_per_s": submitted * size["num_ops"] / wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "paper_mae_pp": _mae(anchors) if anchors else None,
        "anchors": len(anchors),
        "attempted": len(ARTIFACTS),
        "failed": failed,
        "digest": digest.hexdigest(),
        "problems": [],
    }
    if spans is not None:
        from spans import layer_metrics

        results = [r for _, out in calls for r in out.values()]
        task_seconds = [e["dur"] for e in runner_tracer.events if e["name"] == "runner.job"]
        counters = {m.name: m.value for m in registry.metrics() if hasattr(m, "value")}
        unit["layers"] = layer_metrics(
            spans, results, workers=workers, jobs_submitted=submitted,
            jobs_distinct=len({_distinct_key(j) for job_list, _ in calls for j in job_list}),
            task_seconds=task_seconds, runner_counters=counters,
            shm_stats=shm_stats, bytes_written=bytes_written,
        )
        events = runner_tracer.events
        for (first, origin), (last, _) in zip(
            task_origins, task_origins[1:] + [(len(events), 0.0)]
        ):
            for event in events[first:last]:
                event["ts"] += origin
        unit["runner_events"] = events
    return unit


def make_simulator(config):
    """A fresh simulator for one of the nine simloop configurations."""
    from repro.baselines.strict import StrictPersistencySimulator
    from repro.core.schemes import get_scheme
    from repro.core.simulator import SecurePersistencySimulator
    from repro.persistency.flush import FlushBasedSimulator

    if config == "bbb":
        return SecurePersistencySimulator()
    if config == "sp":
        return StrictPersistencySimulator()
    if config == "flush":
        return FlushBasedSimulator()
    return SecurePersistencySimulator(scheme=get_scheme(config))


def run_simloop(seed, benchmark, size, spans=None):
    """One trace through the nine configurations, three passes."""
    from repro.analysis import paper_values
    from repro.analysis.experiments import DEFAULT_WARMUP
    from repro.workloads.store import get_trace

    recorder = spans if spans is not None else _NoSpans()
    num_ops = size["num_ops"]
    with recorder.span("bench.setup"):
        trace = get_trace(benchmark, num_ops, seed)
        trace.iter_ops()  # materialise the Python columns the loop reads
    warmup_ops = int(len(trace) * DEFAULT_WARMUP)
    expected_instructions = int(trace.gap[warmup_ops:].sum()) + len(trace) - warmup_ops

    seconds = {config: [] for config in SIMLOOP_CONFIGS}
    records = {config: [] for config in SIMLOOP_CONFIGS}
    first = {}
    attempted = failed = 0
    setup_s = time.perf_counter() - _STARTED
    start = time.perf_counter()
    with recorder.span("bench.unit"):
        for _ in range(SIMLOOP_PASSES):
            for config in SIMLOOP_CONFIGS:
                attempted += 1
                simulator = make_simulator(config)
                began = time.perf_counter()
                try:
                    result = simulator.run(trace, DEFAULT_WARMUP)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                seconds[config].append(time.perf_counter() - began)
                records[config].append(_result_record(result))
                first.setdefault(config, result)
    wall_s = time.perf_counter() - start

    problems = []
    for config in SIMLOOP_CONFIGS:
        runs = records[config]
        if any(record != runs[0] for record in runs[1:]):
            problems.append(f"{config}: results differ across passes")
            failed += len(runs) - 1
        if runs and runs[0][3] != expected_instructions:
            problems.append(
                f"{config}: {runs[0][3]} instructions, trace has {expected_instructions}"
            )
            failed += len(runs)
    digest = hashlib.sha256()
    for config in SIMLOOP_CONFIGS:
        for record in records[config][:1]:
            digest.update(json.dumps([config, record]).encode("utf-8"))
    anchors = []
    if "bbb" in first:
        anchors = [
            (first[s].overhead_pct_vs(first["bbb"]), v)
            for s, v in paper_values.TABLE4_SLOWDOWN_PCT.items() if s in first
        ]
    timed = sum(sum(values) for values in seconds.values())
    unit = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "refs_per_s": len(trace) * sum(map(len, seconds.values())) / timed,
        "peak_rss_mb": _peak_rss_mb(),
        "paper_mae_pp": _mae(anchors) if anchors else None,
        "anchors": len(anchors),
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "problems": problems,
        "config_refs_per_s": {
            config: len(trace) / statistics.median(values) if values else 0.0
            for config, values in seconds.items()
        },
    }
    if spans is not None:
        from spans import layer_metrics

        unit["layers"] = layer_metrics(spans, list(first.values()))
    return unit


def run_unit(workload, seed, traced, size, out_dir):
    """Run one unit of ``workload``; returns its JSON-able measurements."""
    plan = WORKLOADS[workload]
    size = size if size is not None else SIZES[workload]
    recorder = None
    if traced:
        from spans import Spans, instrument

        recorder = Spans()
        instrument(recorder, simulate_here=workers_for(workload) == 1)
    if plan["kind"] == "repro":
        unit = run_repro(seed, workers_for(workload), size, recorder)
    else:
        unit = run_simloop(seed, plan["benchmark"], size, recorder)
    unit["pid"] = os.getpid()
    if recorder is not None:
        from repro.obs import Tracer

        unit["problems"] += recorder.violations()
        tracer = Tracer(process_name=f"bench {workload}", clock_unit="s")
        tracer.name_lane(1, "bench (unit process)")
        tracer.name_lane(2, "runner jobs (as harvested)")
        recorder.to_tracer(tracer, tid=1)
        for event in unit.pop("runner_events", []):
            tracer.events.append(dict(event, tid=2))
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        tracer.save_chrome(Path(out_dir) / "trace.json")
    return unit


def main():
    spec = json.loads(sys.stdin.read())
    unit = run_unit(
        spec["workload"], spec["seed"], spec["traced"], spec.get("size"), spec["out_dir"]
    )
    print(json.dumps(unit, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
