"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment <id>`` — regenerate one paper artifact (table4, fig6,
  table5, table6, fig7, fig8, fig9) and print it.
* ``simulate`` — run one (benchmark, scheme) pair and report cycles, IPC,
  PPTI/NWPE and overhead vs BBB.
* ``advisor`` — recommend a scheme for a battery budget.
* ``recovery-time`` — worst-case crash-to-consistency window per scheme.
* ``multicore`` — multi-core scaling of one scheme with sharing traffic.
* ``recover-demo`` — the quickstart crash-recovery walkthrough.
* ``workloads`` — characterize the 18 profiles (PPTI / NWPE / IPC).
* ``profile`` — cProfile one simulation and report host-time cost per
  component plus the timing model's simulated-cycle breakdown.
* ``lint`` — run secpb-lint (determinism / stats-hygiene / pool-safety
  / robustness / observability static analysis) over the source tree;
  its flags are those of ``python -m repro.lint``.
* ``faultcampaign`` — seeded fault-injection campaign: adversarial
  crashes, battery brownouts, and post-crash tamper across every scheme,
  with failing-case minimization to replayable JSON reproducers.
* ``chaos`` — turn the fault plane on the harness itself: a systematic
  crash-consistency sweep (every torn journal prefix, every artifact
  fault) or a seeded random OS-fault soak, grading the crash-safety
  invariants and shrinking violations to replayable reproducers.
* ``trace`` — run one simulation with structured event tracing and write
  a Chrome-trace/Perfetto-loadable timeline keyed by simulated cycles.
* ``list`` — available benchmarks, schemes and experiments.

Every subcommand takes ``--verbose``/``-v`` and ``--quiet``/``-q``;
``main`` configures stderr logging once through
:func:`repro.obs.configure_logging`, so diagnostics (e.g. workload
quarantine warnings, runner progress, campaign heartbeats) behave
identically everywhere instead of depending on which subcommand happened
to call ``logging.basicConfig``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis.experiments import DEFAULT_WARMUP, EXPERIMENTS, run_experiment
from .analysis.serialize import (
    save_result,
    simulation_result_from_payload,
    simulation_result_to_payload,
)
from .baselines.bbb import run_bbb
from .core.schemes import SPECTRUM_ORDER, get_scheme
from .core.simulator import run_scheme
from .durability import (
    EXIT_RESUMABLE,
    ArtifactError,
    DeadlineToken,
    JournalError,
    RunInterrupted,
    StopToken,
    graceful_shutdown,
    open_journal,
    write_artifact,
)
from .energy.advisor import recommend
from .energy.costs import LI_THIN, SUPERCAP
from .obs import MetricsRegistry, Tracer, configure_logging
from .workloads.spec import all_benchmarks, build_trace

TIMING_EXPERIMENTS = ("table4", "fig6", "fig7", "fig8", "fig9")
"""Trace-driven experiments that accept num_ops/seed/jobs."""

EXPERIMENT_JOURNAL_KIND = "experiment"
"""Journal ``kind`` tag for ``repro experiment`` journals."""

_OUTPUT_FLAGS = ("save", "metrics", "trace", "journal", "out", "jsonl")
"""Destinations of every flag that names a file the command writes."""


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _float_in(
    low: float, high: float, low_open: bool = False, high_open: bool = False
) -> Callable[[str], float]:
    """An argparse ``type``: a float between ``low`` and ``high``.

    Both bounds are inclusive unless marked open; NaN is never in range.
    """
    interval = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        above = value > low if low_open else value >= low
        below = value < high if high_open else value <= high
        if not (above and below):
            raise argparse.ArgumentTypeError(f"must be in {interval}, got {text}")
        return value

    return parse


_warmup_fraction = _float_in(0.0, 1.0, high_open=True)
_positive = _float_in(0.0, float("inf"), low_open=True, high_open=True)


def _scheme_names(text: str) -> Tuple[str, ...]:
    """An argparse ``type``: ``all``, or comma-separated scheme names."""
    if text == "all":
        return tuple(SPECTRUM_ORDER)
    names = tuple(text.split(","))
    for name in names:
        try:
            get_scheme(name)
        except KeyError as exc:
            raise argparse.ArgumentTypeError(exc.args[0]) from None
    return names


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output path whose directory does not exist, before any work.

    Otherwise the mistake would surface only after the whole simulation or
    campaign, as a traceback from the artifact writer.
    """
    for dest in _OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if path is None:
            continue
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise SystemExit(
                f"error: --{dest} {path}: directory {directory} does not exist"
            )


def _resolve_journal(args: argparse.Namespace) -> Tuple[Optional[str], bool]:
    """(journal path, resuming?) from ``--journal``/``--resume`` flags.

    ``--deadline`` without a journal would checkpoint into nothing —
    every completed job would be lost at the deadline — so it is
    rejected up front.
    """
    journal = args.resume or args.journal
    if args.deadline is not None and journal is None:
        raise SystemExit(
            "error: --deadline requires --journal or --resume "
            "(a checkpoint needs somewhere durable to land)"
        )
    return journal, args.resume is not None


def _stop_token(args: argparse.Namespace) -> StopToken:
    if args.deadline is not None:
        return DeadlineToken(args.deadline)
    return StopToken()


def _report_interrupt(exc: RunInterrupted, journal: Optional[str]) -> int:
    print(
        f"interrupted ({exc.reason}): {len(exc.completed)} job(s) "
        f"checkpointed"
        + (f" in {journal}; rerun with --resume {journal}" if journal else ""),
        file=sys.stderr,
    )
    return EXIT_RESUMABLE


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Export a registry: ``.json`` paths get JSON, the rest Prometheus text."""
    if path.endswith(".json"):
        write_artifact(path, registry.to_json())
    else:
        write_artifact(path, registry.to_prometheus_text())
    print(f"metrics saved to {path}", file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    journal, resuming = _resolve_journal(args)
    timing_only = [
        flag
        for flag, value in (
            ("--journal/--resume", journal),
            ("--metrics", args.metrics),
            ("--trace", args.trace),
        )
        if value is not None
    ]
    if timing_only and args.id not in TIMING_EXPERIMENTS:
        raise SystemExit(
            f"error: {', '.join(timing_only)} only apply to the "
            f"trace-driven experiments ({', '.join(TIMING_EXPERIMENTS)}); "
            f"{args.id} finishes instantly"
        )
    kwargs: Dict[str, Any] = {}
    if args.id in TIMING_EXPERIMENTS:
        kwargs.update(num_ops=args.num_ops, seed=args.seed, jobs=args.jobs)
    # Observability and checkpointing both ride on runner_opts, which the
    # experiment forwards verbatim to run_jobs.  Per-job progress/timing
    # goes to stderr via logging, keeping the rendered artifact on stdout
    # byte-identical across --jobs and across --metrics/--trace.
    runner_opts: Dict[str, Any] = {}
    registry = MetricsRegistry() if args.metrics is not None else None
    if registry is not None:
        runner_opts["metrics"] = registry
    tracer = (
        Tracer(process_name=f"repro-experiment-{args.id}", clock_unit="seconds")
        if args.trace is not None
        else None
    )
    if tracer is not None:
        runner_opts["tracer"] = tracer
    writer = None
    token = None
    if journal is not None:
        spec_payload = {
            "experiment": args.id,
            "num_ops": args.num_ops,
            "seed": args.seed,
        }
        try:
            writer, payloads = open_journal(
                journal, EXPERIMENT_JOURNAL_KIND, spec_payload, resume=resuming
            )
        except JournalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        completed = {
            key: simulation_result_from_payload(payload)
            for key, payload in payloads.items()
        }

        def on_result(key: Any, result: Any) -> None:
            writer.append(key, simulation_result_to_payload(result))

        token = _stop_token(args)
        runner_opts.update(completed=completed, on_result=on_result, stop=token)
    if runner_opts:
        kwargs["runner_opts"] = runner_opts
    try:
        if token is not None:
            with graceful_shutdown(token):
                result = run_experiment(args.id, **kwargs)
        else:
            result = run_experiment(args.id, **kwargs)
    except RunInterrupted as exc:
        return _report_interrupt(exc, journal)
    finally:
        if writer is not None:
            writer.close()
    print(result.render())
    if args.save:
        save_result(result, args.save)
        print(f"result saved to {args.save}", file=sys.stderr)
    if registry is not None:
        _write_metrics(registry, args.metrics)
    if tracer is not None:
        tracer.save_chrome(args.trace)
        print(f"trace saved to {args.trace}", file=sys.stderr)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = build_trace(args.benchmark, args.num_ops, args.seed)
    # The BBB baseline honors the same warmup as the scheme runs, so the
    # printed overheads match `experiment table4` for the same benchmark.
    baseline = run_bbb(trace, warmup_frac=args.warmup)
    print(
        f"benchmark {args.benchmark}: {trace.num_stores} stores / "
        f"{trace.instructions} instructions"
    )
    print(
        f"  {'bbb':<7} cycles={baseline.cycles:12.0f} ipc={baseline.ipc:5.2f}"
    )
    schemes = SPECTRUM_ORDER if args.scheme == "all" else [args.scheme]
    for name in schemes:
        result = run_scheme(trace, get_scheme(name), warmup_frac=args.warmup)
        print(
            f"  {name:<7} cycles={result.cycles:12.0f} "
            f"ipc={result.ipc:5.2f} "
            f"overhead={result.overhead_pct_vs(baseline):7.1f}%  "
            f"ppti={result.stats['ppti']:5.1f} nwpe={result.stats['nwpe']:5.1f}"
        )
    return 0


def _cmd_advisor(args: argparse.Namespace) -> int:
    technology = LI_THIN if args.technology == "li-thin" else SUPERCAP
    print(recommend(args.budget, technology, include_store_buffer=args.store_buffer))
    return 0


def _cmd_recovery_time(args: argparse.Namespace) -> int:
    from .core.recovery_time import recovery_time_table
    from .sim.config import SystemConfig

    config = SystemConfig().with_secpb_entries(args.entries)
    table = recovery_time_table(config)
    print(f"worst-case crash-to-consistency time ({args.entries}-entry SecPB):")
    for name, estimate in table.items():
        print(
            f"  {name:<7} {estimate.per_entry_cycles:7.0f} cycles/entry   "
            f"{estimate.total_us:8.2f} us total"
        )
    return 0


def _cmd_multicore(args: argparse.Namespace) -> int:
    from .core.multicore import MultiCoreSecPBSimulator, sharing_traces

    scheme = get_scheme(args.scheme)
    base_cycles = None
    print(
        f"multi-core scaling for {args.scheme} "
        f"(share fraction {args.share}, {args.num_ops} refs/core):"
    )
    for cores in (1, 2, 4, 8):
        traces = sharing_traces(
            cores, args.num_ops, share_fraction=args.share, seed=args.seed
        )
        result = MultiCoreSecPBSimulator(cores, scheme).run(
            traces, warmup_frac=args.warmup
        )
        if base_cycles is None:
            base_cycles = result.cycles
        migrations = int(result.stats.get("coherence.migrations", 0))
        print(
            f"  {cores} core(s): makespan {result.cycles:12.0f} cycles "
            f"({result.cycles / base_cycles:5.2f}x)  migrations {migrations}"
        )
    return 0


def _cmd_recover_demo(args: argparse.Namespace) -> int:
    from .core.crash import GappedPersistentSystem, SecurePersistentSystem

    system = SecurePersistentSystem(get_scheme(args.scheme))
    for i in range(64):
        system.store(i, bytes([i]) * 64)
    report = system.crash()
    recovery = system.recover()
    print(
        f"SecPB ({args.scheme}): drained {report.entries_drained} entries, "
        f"{report.late_steps_completed} late steps, recovery ok: {recovery.ok}"
    )
    gapped = GappedPersistentSystem()
    for i in range(64):
        gapped.store(i, bytes([i]) * 64)
    gapped.crash()
    failed = len(gapped.recover().failures)
    print(f"naive gap:     recovery failed for {failed}/64 blocks")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from .core.simulator import SecurePersistencySimulator

    bbb = SecurePersistencySimulator(scheme=None)
    print(f"{'benchmark':<12} {'stores/ki':>9} {'PPTI':>6} {'NWPE':>6} {'IPC':>5}")
    for name in all_benchmarks():
        trace = build_trace(name, args.num_ops, args.seed)
        result = bbb.run(trace, 0.3)
        print(
            f"{name:<12} {trace.stores_per_kilo_instructions:9.1f} "
            f"{result.stats['ppti']:6.1f} {result.stats['nwpe']:6.1f} "
            f"{result.ipc:5.2f}"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis.profiling import profile_simulation

    scheme = None if args.scheme == "bbb" else get_scheme(args.scheme)
    report = profile_simulation(
        benchmark=args.benchmark,
        scheme=scheme,
        num_ops=args.num_ops,
        seed=args.seed,
        top=args.top,
    )
    print(report.render())
    return 0


def _cmd_faultcampaign(args: argparse.Namespace) -> int:
    from .fault import CampaignSpec, run_campaign, save_reproducer
    from .fault.campaign import execute_case
    from .fault.minimize import ReplayOutcome, read_reproducer

    if args.replay:
        try:
            case, recorded = read_reproducer(args.replay)
        except (OSError, ValueError, TypeError, ArtifactError) as exc:
            print(f"error: unusable reproducer: {exc}", file=sys.stderr)
            return 2
        outcome = ReplayOutcome(execute_case(case), recorded)
        result = outcome.result
        if outcome.diverged:
            # The replayed verdict is not what the campaign recorded —
            # the code under test changed, so the reproducer is stale.
            print(
                f"DIVERGED {result.case_id}: replay disagrees with the "
                f"recorded verdict"
            )
            print(outcome.diff(), end="")
            return 3
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status} {result.case_id}: expected {result.expected}, "
            f"got {result.observed}"
        )
        if result.detail:
            print(f"  {result.detail}")
        return 0 if result.passed else 1

    journal, resuming = _resolve_journal(args)
    spec = CampaignSpec(
        seed=args.seed,
        schemes=args.schemes,
        crash_points=args.crash_points,
        num_stores=args.num_stores,
        num_asids=args.asids,
    )
    registry = MetricsRegistry() if args.metrics is not None else None
    tracer = (
        Tracer(process_name="repro-faultcampaign", clock_unit="seconds")
        if args.trace is not None
        else None
    )
    token = _stop_token(args)
    try:
        with graceful_shutdown(token):
            report = run_campaign(
                spec,
                jobs=args.jobs,
                timeout=args.timeout,
                minimize=not args.no_minimize,
                journal=journal,
                resume=resuming,
                stop=token,
                metrics=registry,
                tracer=tracer,
            )
    except RunInterrupted as exc:
        return _report_interrupt(exc, journal)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.save:
        write_artifact(args.save, report.to_json() + "\n")
        print(f"report saved to {args.save}", file=sys.stderr)
    if args.repro_dir and report.reproducers:
        os.makedirs(args.repro_dir, exist_ok=True)
        for repro in report.reproducers:
            name = repro.case_id.replace("/", "_") + ".json"
            path = save_reproducer(
                repro.minimized,
                os.path.join(args.repro_dir, name),
                result=repro.result,
            )
            print(f"reproducer saved to {path}", file=sys.stderr)
    if registry is not None:
        _write_metrics(registry, args.metrics)
    if tracer is not None:
        tracer.save_chrome(args.trace)
        print(f"trace saved to {args.trace}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Lazy: the checker pulls in the campaign and analysis stacks, and
    # `repro.envfault.__init__` deliberately does not re-export it.
    from .envfault import PlanError
    from .envfault.check import (
        replay_reproducer,
        soak_check,
        soak_kinds,
        systematic_check,
    )

    kinds = None
    if args.faults != "all":
        try:
            kinds = soak_kinds(
                [k.strip() for k in args.faults.split(",") if k.strip()]
            )
        except PlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    workdir = args.workdir
    scratch = None
    if workdir is None:
        import tempfile

        scratch = tempfile.mkdtemp(prefix="secpb_chaos_")
        workdir = scratch
    if args.replay:
        try:
            report = replay_reproducer(args.replay, workdir, jobs=args.jobs)
        except (OSError, ValueError, PlanError, KeyError, ArtifactError) as exc:
            print(f"error: unusable reproducer: {exc}", file=sys.stderr)
            return 2
    elif args.systematic:
        report = systematic_check(workdir, jobs=args.jobs)
    else:
        report = soak_check(
            workdir,
            seed=args.seed,
            ops=args.ops,
            minutes=args.minutes,
            kinds=kinds,
            jobs=args.jobs,
            max_iterations=args.max_iterations,
            reproducer_dir=args.repro_dir,
        )
    if scratch is not None and not any(
        str(path).startswith(scratch) for path in report.reproducers
    ):
        # Crash states are disposable; a temp workdir survives only when
        # a soak just saved a reproducer into it.
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    print(report.render())
    if args.save:
        write_artifact(args.save, report.to_json())
        print(f"report saved to {args.save}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.simulator import SecurePersistencySimulator
    from .obs import load_trace_schema, record_simulation, validate_or_raise

    scheme = None if args.scheme == "bbb" else get_scheme(args.scheme)
    trace = build_trace(args.benchmark, args.num_ops, args.seed)
    tracer = Tracer(process_name=f"secpb-{args.benchmark}-{args.scheme}")
    simulator = SecurePersistencySimulator(scheme=scheme, tracer=tracer)
    result = simulator.run(trace, args.warmup)
    payload = tracer.to_chrome()
    # Self-check against the checked-in schema before anything lands on
    # disk — a malformed event should fail here, not in the viewer.
    validate_or_raise(payload, load_trace_schema())
    tracer.save_chrome(args.out)
    print(
        f"benchmark {args.benchmark}, scheme {args.scheme}: "
        f"{result.cycles:.0f} cycles, {len(tracer.events)} trace event(s)"
    )
    print(f"trace saved to {args.out} (load in Perfetto / chrome://tracing)",
          file=sys.stderr)
    if args.jsonl:
        tracer.save_jsonl(args.jsonl)
        print(f"event stream saved to {args.jsonl}", file=sys.stderr)
    if args.metrics:
        registry = MetricsRegistry()
        record_simulation(registry, result)
        _write_metrics(registry, args.metrics)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("schemes:     " + ", ".join(SPECTRUM_ORDER))
    print("experiments: " + ", ".join(sorted(EXPERIMENTS)))
    print("benchmarks:  " + ", ".join(all_benchmarks()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SecPB (HPCA 2023) reproduction toolkit",
    )
    # One logging contract for every subcommand: the flags live on a
    # shared parent parser and main() runs the repro.obs bootstrap once,
    # so diagnostics no longer depend on per-subcommand basicConfig calls.
    common = argparse.ArgumentParser(add_help=False)
    output = common.add_mutually_exclusive_group()
    output.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="INFO-level diagnostics on stderr (runner progress, "
        "campaign heartbeats)",
    )
    output.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="suppress warnings; only errors reach stderr",
    )
    # The run-control flags `experiment` and `faultcampaign` share: both
    # drive run_tasks, so they take the same workers, checkpointing and
    # export options.
    run_control = argparse.ArgumentParser(add_help=False)
    run_control.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="worker processes for the sweep (default: serial)",
    )
    run_control.add_argument(
        "--save", metavar="PATH", default=None, help="write the result as JSON"
    )
    run_control.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint each completed job to an append-only journal "
        "(fsynced per record; survives SIGKILL)",
    )
    run_control.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume from a journal: skip journaled jobs, run the rest, "
        "produce byte-identical output",
    )
    run_control.add_argument(
        "--deadline",
        type=_positive,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget; on expiry, checkpoint to the journal and "
        f"exit {EXIT_RESUMABLE} (resumable)",
    )
    run_control.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="export runner metrics after the run (.json for JSON, "
        "anything else for Prometheus text)",
    )
    run_control.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome-trace timeline of per-job wall time",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment",
        parents=[common, run_control],
        help="regenerate a paper artifact",
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--num-ops", type=_int_at_least(1), default=20_000)
    experiment.add_argument(
        "--seed", type=_int_at_least(0), default=1, help="trace-generation seed"
    )
    experiment.set_defaults(func=_cmd_experiment)

    simulate = sub.add_parser(
        "simulate", parents=[common], help="run one benchmark/scheme pair"
    )
    simulate.add_argument("benchmark", choices=all_benchmarks())
    simulate.add_argument(
        "--scheme", default="all", choices=["all"] + SPECTRUM_ORDER
    )
    simulate.add_argument("--num-ops", type=_int_at_least(1), default=20_000)
    simulate.add_argument("--seed", type=_int_at_least(0), default=1)
    simulate.add_argument(
        "--warmup",
        type=_warmup_fraction,
        default=DEFAULT_WARMUP,
        help="leading trace fraction excluded from timing "
        "(matches the experiment harness default)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    advisor = sub.add_parser(
        "advisor", parents=[common], help="scheme choice for a battery budget"
    )
    advisor.add_argument("budget", type=_positive, help="battery volume in mm^3")
    advisor.add_argument(
        "--technology", choices=["supercap", "li-thin"], default="supercap"
    )
    advisor.add_argument(
        "--store-buffer",
        action="store_true",
        help="include a battery-backed store buffer (relaxed consistency)",
    )
    advisor.set_defaults(func=_cmd_advisor)

    rectime = sub.add_parser(
        "recovery-time",
        parents=[common],
        help="crash-to-consistency window per scheme",
    )
    rectime.add_argument("--entries", type=_int_at_least(1), default=32)
    rectime.set_defaults(func=_cmd_recovery_time)

    multicore = sub.add_parser(
        "multicore", parents=[common], help="multi-core scaling study"
    )
    multicore.add_argument("--scheme", default="cm", choices=SPECTRUM_ORDER)
    multicore.add_argument("--num-ops", type=_int_at_least(1), default=4000)
    multicore.add_argument("--share", type=_float_in(0.0, 1.0), default=0.15)
    multicore.add_argument("--seed", type=_int_at_least(0), default=1)
    multicore.add_argument(
        "--warmup",
        type=_warmup_fraction,
        default=0.0,
        help="leading fraction of the lockstep rounds excluded from "
        "timing (same snapshot/subtract protocol as single-core)",
    )
    multicore.set_defaults(func=_cmd_multicore)

    demo = sub.add_parser(
        "recover-demo", parents=[common], help="crash-recovery walkthrough"
    )
    demo.add_argument("--scheme", default="cobcm", choices=SPECTRUM_ORDER)
    demo.set_defaults(func=_cmd_recover_demo)

    workloads = sub.add_parser(
        "workloads", parents=[common], help="profile characterization"
    )
    workloads.add_argument("--num-ops", type=_int_at_least(1), default=20_000)
    workloads.add_argument("--seed", type=_int_at_least(0), default=1)
    workloads.set_defaults(func=_cmd_workloads)

    profile = sub.add_parser(
        "profile",
        parents=[common],
        help="cProfile one simulation: host time per component + "
        "simulated-cycle breakdown",
    )
    profile.add_argument("--benchmark", default="gamess", choices=all_benchmarks())
    profile.add_argument(
        "--scheme", default="cobcm", choices=["bbb"] + SPECTRUM_ORDER
    )
    profile.add_argument("--num-ops", type=_int_at_least(1), default=40_000)
    profile.add_argument("--seed", type=_int_at_least(0), default=1)
    profile.add_argument(
        "--top", type=_int_at_least(1), default=12, help="hottest functions to list"
    )
    profile.set_defaults(func=_cmd_profile)

    # The lint flags (and --help) belong to repro.lint.cli's parser; main()
    # hands it every argument this subparser leaves unparsed.
    sub.add_parser(
        "lint",
        parents=[common],
        add_help=False,
        help="secpb-lint static analysis (determinism, stats hygiene, "
        "pool safety, robustness, observability)",
    )

    faultcampaign = sub.add_parser(
        "faultcampaign",
        parents=[common, run_control],
        help="fault-injection campaign: adversarial crashes, brownouts, "
        "tamper detection, minimized reproducers",
    )
    faultcampaign.add_argument(
        "--schemes",
        type=_scheme_names,
        default="all",
        help="comma-separated scheme names (default: the full spectrum)",
    )
    faultcampaign.add_argument(
        "--crash-points",
        type=_int_at_least(0),
        default=8,
        help="sampled crash indices per scheme and crash kind",
    )
    faultcampaign.add_argument("--num-stores", type=_int_at_least(1), default=60)
    faultcampaign.add_argument("--asids", type=_int_at_least(1), default=4)
    faultcampaign.add_argument("--seed", type=int, default=2023)
    faultcampaign.add_argument(
        "--timeout",
        type=_positive,
        default=None,
        help="per-case timeout in seconds (pool mode only)",
    )
    faultcampaign.add_argument(
        "--repro-dir",
        metavar="DIR",
        default=None,
        help="save minimized reproducers for failing cases here",
    )
    faultcampaign.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="replay one saved reproducer instead of running a campaign",
    )
    faultcampaign.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip failing-case minimization",
    )
    faultcampaign.set_defaults(func=_cmd_faultcampaign)

    chaos = sub.add_parser(
        "chaos",
        parents=[common],
        help="chaos-test the harness itself: inject OS faults (ENOSPC, "
        "torn writes, worker kills) and check crash-consistency invariants",
    )
    chaos.add_argument(
        "--systematic",
        action="store_true",
        help="enumerate every torn journal prefix and partially-applied "
        "artifact write instead of the randomized soak",
    )
    chaos.add_argument("--seed", type=int, default=2023)
    chaos.add_argument(
        "--ops",
        type=_int_at_least(1),
        default=3,
        help="faults per soak iteration (default: %(default)s)",
    )
    chaos.add_argument(
        "--minutes",
        type=_positive,
        default=0.5,
        help="soak wall-clock budget in minutes (default: %(default)s)",
    )
    chaos.add_argument(
        "--faults",
        default="all",
        help="comma-separated fault kinds to soak with (default: all, "
        "i.e. every filesystem and process kind)",
    )
    chaos.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=2,
        help="worker processes for armed runs",
    )
    chaos.add_argument(
        "--max-iterations",
        type=_int_at_least(1),
        metavar="N",
        default=None,
        help="stop the soak after N iterations even if time remains",
    )
    chaos.add_argument(
        "--workdir",
        metavar="DIR",
        default=None,
        help="directory for crash states (default: a temp dir)",
    )
    chaos.add_argument(
        "--repro-dir",
        metavar="DIR",
        default=None,
        help="save shrunk chaos reproducers for violations here",
    )
    chaos.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="replay one saved chaos reproducer instead of soaking",
    )
    chaos.add_argument(
        "--save", metavar="PATH", default=None, help="write the JSON report"
    )
    chaos.set_defaults(func=_cmd_chaos)

    trace_cmd = sub.add_parser(
        "trace",
        parents=[common],
        help="run one traced simulation and write a Perfetto-loadable "
        "Chrome trace keyed by simulated cycles",
    )
    trace_cmd.add_argument(
        "--benchmark", default="gamess", choices=all_benchmarks()
    )
    trace_cmd.add_argument(
        "--scheme", default="m", choices=["bbb"] + SPECTRUM_ORDER
    )
    trace_cmd.add_argument("--num-ops", type=_int_at_least(1), default=4000)
    trace_cmd.add_argument("--seed", type=_int_at_least(0), default=1)
    trace_cmd.add_argument(
        "--warmup",
        type=_warmup_fraction,
        default=0.0,
        help="warmup fraction (events are emitted for the whole run; "
        "warmup only affects the reported stats)",
    )
    trace_cmd.add_argument(
        "--out",
        metavar="PATH",
        default="secpb-trace.json",
        help="Chrome trace-event output (default: %(default)s)",
    )
    trace_cmd.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="also write the raw event stream as JSON Lines",
    )
    trace_cmd.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="also export the run's stats as metrics (.json for JSON, "
        "anything else for Prometheus text)",
    )
    trace_cmd.set_defaults(func=_cmd_trace)

    lister = sub.add_parser(
        "list",
        parents=[common],
        help="available schemes/benchmarks/experiments",
    )
    lister.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and args.command != "lint":
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    configure_logging(
        verbose=getattr(args, "verbose", False),
        quiet=getattr(args, "quiet", False),
    )
    if args.command == "lint":
        from .lint.cli import main as lint_main

        return lint_main(extras)
    _check_output_paths(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
