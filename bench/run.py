#!/usr/bin/env python3
"""End-to-end benchmark of the SecPB reproduction (see bench/README.md).

Usage::

    python3 bench/run.py --workload repro-serial --seed 1 --seconds 30 --trace 0

Runs units of the workload back to back, each in a fresh interpreter
(``bench/unit.py``), until ``--seconds`` would be exceeded.  With
``--trace 0`` it reports each end-to-end metric's best value over the
units.  With ``--trace 1`` it runs one untraced and one traced unit,
writes ``layers.json`` and ``trace.json`` under ``.bench_out/<workload>/``
and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it gives the workload, seed, unit count and results digest.  The exit
code is 0 only when every correctness check passed.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from unit import SIMLOOP_CONFIGS, WORKLOADS, workers_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNIT = BENCH / "unit.py"

UNIT_TIMEOUT_S = 150.0
REAP_GRACE_S = 5.0
_PR_SET_CHILD_SUBREAPER = 36
_PR_GET_CHILD_SUBREAPER = 37

#: End-to-end metric -> (unit, how a run reduces its units' values).
#: A run reports the best unit: host speed here changes in bursts that
#: span several units, and such noise only ever slows a unit down, so the
#: best unit moves far less from run to run than the median does.
END_TO_END = {
    "wall_s": ("s", min),
    "refs_per_s": ("1/s", max),
    "setup_s": ("s", min),
    "peak_rss_mb": ("MB", min),
}

#: Paper anchors each workload's paper_mae_pp averages over.
ANCHORS = {"repro": 15, "simloop": 6}

_SPECIAL_UNITS = {
    "model.paper_mae_pp": "pp",
    "model.ppti": "1/kinst",
    "model.nwpe": "writes/entry",
    "security.bmt.root_updates_per_store": "1/store",
}


def layer_unit(name):
    """The unit of a per-layer metric, from its name."""
    if name in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[name]
    if ".refs_per_s." in name:
        return "1/s"
    if name.endswith("_s") or "_s_p" in name:
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


@contextmanager
def _adopting_orphans():
    """Be the subreaper of unit descendants while measuring (Linux).

    A unit's multiprocessing resource tracker outlives it by a moment;
    adopted, it is reaped by :func:`_reap_group` instead of lingering as
    a zombie until init gets to it.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        yield
        return
    previous = ctypes.c_int(0)
    prctl(_PR_GET_CHILD_SUBREAPER, ctypes.byref(previous), 0, 0, 0)
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    try:
        yield
    finally:
        prctl(_PR_SET_CHILD_SUBREAPER, previous.value, 0, 0, 0)


def _reap_group(pgid):
    """Wait for every process of a unit's group to end; kill stragglers."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            while os.waitpid(-pgid, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = float("inf")
        time.sleep(0.02)


def run_unit(spec, tmp_dir):
    """One unit in a fresh interpreter; its measurements, or None if it died."""
    proc = subprocess.Popen(
        [sys.executable, str(UNIT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, TMPDIR=str(tmp_dir)),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(spec), timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0 or not out.strip():
        print(f"unit {spec['workload']} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def _check(units, kind):
    """Cross-unit correctness checks; returns the problems found."""
    problems = [p for unit in units for p in unit["problems"]]
    if len({unit["digest"] for unit in units}) > 1:
        problems.append("results digest differs between units")
    if len({unit["paper_mae_pp"] for unit in units}) > 1:
        problems.append("paper_mae_pp differs between units")
    if any(unit["anchors"] != ANCHORS[kind] for unit in units):
        problems.append(f"expected {ANCHORS[kind]} paper anchors")
    return problems


def _run_units(spec, tmp_dir, seconds, trace):
    """The units of one run; returns ``(units, crashed)``.

    Traced: one untraced unit, then one traced.  Untraced: units until
    another one would end after ``seconds`` (at least one).
    """
    units = []
    started = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        unit = run_unit(dict(spec, traced=trace and len(units) == 1), tmp_dir)
        if unit is None:
            return units, 1
        units.append(unit)
        durations.append(time.perf_counter() - began)
        if trace:
            if len(units) == 2:
                return units, 0
        elif time.perf_counter() - started + statistics.median(durations) > seconds:
            return units, 0


def measure(workload, seed, seconds, trace, out_dir, size=None):
    """Run the workload; returns ``(result line, detail line)`` as dicts."""
    out_dir = Path(out_dir)
    tmp_dir = out_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "size": size,
            "out_dir": str(out_dir / workload)}
    kind = WORKLOADS[workload]["kind"]
    with _adopting_orphans():
        units, crashed = _run_units(spec, tmp_dir, seconds, trace)

    problems = _check(units, kind) if units else []
    if crashed:
        problems.append("a unit exited without a result")
    attempted = sum(unit["attempted"] for unit in units) + crashed
    failed = sum(unit["failed"] for unit in units) + crashed
    metrics = {}
    if trace and len(units) == 2:
        plain, traced = units
        layers = dict(traced["layers"])
        for config in SIMLOOP_CONFIGS:
            layers[f"core.simulator.refs_per_s.{config}"] = plain.get(
                "config_refs_per_s", {}
            ).get(config, 0.0)
        layers["model.paper_mae_pp"] = plain["paper_mae_pp"]
        layers["bench.trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
        (out_dir / workload / "layers.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
    elif units and not trace:
        for name, (unit_name, best) in END_TO_END.items():
            metrics[name] = {"value": best(unit[name] for unit in units), "unit": unit_name}
    result = {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "units": len(units),
        "workers": workers_for(workload),
        "digest": units[0]["digest"] if units else None,
        "paper_mae_pp": units[0]["paper_mae_pp"] if units else None,
        "unit_wall_s": [unit["wall_s"] for unit in units],
        "unit_setup_s": [unit["setup_s"] for unit in units],
        # Shared-memory segment names embed the owner pid, for leak audits.
        "unit_pids": [unit["pid"] for unit in units],
        "problems": problems,
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    result, detail = measure(
        args.workload, args.seed, args.seconds, args.trace, ROOT / ".bench_out"
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
