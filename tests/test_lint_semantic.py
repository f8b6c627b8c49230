"""The whole-program semantic lint layer (repro.lint.semantic).

Pins every layer against committed fixture trees in
``tests/data/semantic/`` and small in-memory projects:

* the project model (module naming, imports, the import graph);
* the call graph (methods, aliases, the recorded ``unresolved`` set);
* the SPB7xx/8xx/9xx rule families against *planted* violations,
  including the acceptance scenario — a two-hop laundered
  ``time.time()`` flagged by SPB701 while the equivalent direct call
  stays SPB102-only (no double-reporting);
* the CLI surface: ``--select``, the JSON report, and each fixture
  tree's JSON report pinned byte for byte;
* the single parse: per-file rules still run on every parsed file when
  two files share a dotted module name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import analyze_paths, lint_paths, run_project_rules, select_rules
from repro.lint.cli import main as lint_main
from repro.lint.semantic import SemanticAnalysis
from repro.lint.semantic.project import ProjectModel

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "data" / "semantic"
TAINT_TREE = FIXTURES / "taint_tree"
IO_TREE = FIXTURES / "io_tree"
EXC_TREE = FIXTURES / "exc_tree"


def semantic_findings(tree, codes=None):
    analysis = analyze_paths([tree])
    rules = select_rules(select=codes)
    return run_project_rules(analysis, rules=rules)


# ----------------------------------------------------------------------
# project model


def test_fixture_trees_scope_like_the_real_source():
    project = ProjectModel.build([TAINT_TREE])
    assert "repro.sim.engine" in project.modules
    assert "repro.util.clock" in project.modules
    assert not project.parse_errors


def test_import_graph_and_reverse_dependents():
    project = ProjectModel.build([TAINT_TREE])
    assert "repro.util.clock" in project.import_graph["repro.sim.engine"]


def test_relative_and_aliased_imports_resolve():
    project = ProjectModel.from_sources(
        {
            "pkg": ("pkg/__init__.py", ""),
            "pkg.helpers": (
                "pkg/helpers.py",
                "def helper():\n    return 1\n",
            ),
            "pkg.consumer": (
                "pkg/consumer.py",
                "from .helpers import helper as h\n\n"
                "def use():\n    return h()\n",
            ),
        }
    )
    module = project.modules["pkg.consumer"]
    assert project.resolve_chain(module, ["h"]) == "pkg.helpers.helper"


# ----------------------------------------------------------------------
# call graph


def test_call_graph_resolves_functions_methods_and_self_calls():
    project = ProjectModel.from_sources(
        {
            "pkg": ("pkg/__init__.py", ""),
            "pkg.engine": (
                "pkg/engine.py",
                "class Engine:\n"
                "    def step(self):\n"
                "        return self.tick()\n"
                "    def tick(self):\n"
                "        return 0\n"
                "\n"
                "def drive():\n"
                "    eng = Engine()\n"
                "    return eng.step()\n",
            ),
        }
    )
    graph = SemanticAnalysis(project).graph
    step_callees = {s.callee for s in graph.call_sites("pkg.engine.Engine.step")}
    assert "pkg.engine.Engine.tick" in step_callees
    drive_callees = {s.callee for s in graph.call_sites("pkg.engine.drive")}
    assert "pkg.engine.Engine.__init__" not in drive_callees  # no __init__ def
    assert "pkg.engine.Engine.step" in drive_callees


def test_unresolved_calls_are_recorded_not_dropped():
    project = ProjectModel.from_sources(
        {
            "pkg": ("pkg/__init__.py", ""),
            "pkg.dyn": (
                "pkg/dyn.py",
                "def run(callback):\n    return callback()\n",
            ),
        }
    )
    graph = SemanticAnalysis(project).graph
    assert any(
        u.caller == "pkg.dyn.run" for u in graph.unresolved
    ), "dynamic call must land in the unresolved set, not vanish"


def test_real_tree_unresolved_set_is_recorded():
    analysis = analyze_paths([Path("src")])
    graph = analysis.graph
    total_sites = sum(len(sites) for sites in graph.edges.values())
    assert total_sites > 500, "the resolved call graph must be non-trivial"
    # Soundness-gap bookkeeping: dynamic/duck-typed calls are real; they
    # must land in the unresolved set with caller and target recorded.
    assert graph.unresolved
    assert all(u.caller and u.target for u in graph.unresolved)


# ----------------------------------------------------------------------
# SPB701-704: interprocedural determinism taint


def test_two_hop_wallclock_taint_flagged_spb701():
    findings = semantic_findings(TAINT_TREE, codes=["SPB701"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.code == "SPB701"
    assert finding.path.endswith("repro/sim/engine.py")
    assert "timestamp" in finding.message
    assert "read_clock" in finding.message
    assert "time.time()" in finding.message


def test_direct_call_is_spb102_only_no_double_report():
    per_file = lint_paths([TAINT_TREE])
    spb102_lines = {f.line for f in per_file if f.code == "SPB102"}
    assert spb102_lines, "the planted direct time.time() must stay SPB102"
    semantic = semantic_findings(TAINT_TREE)
    spb701_lines = {f.line for f in semantic if f.code == "SPB701"}
    assert not (
        spb102_lines & spb701_lines
    ), "a line flagged by SPB102 must never also be flagged by SPB701"


def test_environ_alias_laundered_into_sim_flagged_spb703():
    project = ProjectModel.from_sources(
        {
            "repro.util.env": (
                "repro/util/env.py",
                "from os import environ\n\n"
                "def mode():\n    return environ[\"X\"]\n",
            ),
            "repro.sim.use": (
                "repro/sim/use.py",
                "from repro.util.env import mode\n\n"
                "def pick():\n    return mode()\n",
            ),
        }
    )
    findings = run_project_rules(
        SemanticAnalysis(project), select_rules(select=["SPB703"])
    )
    assert [(f.path, f.line) for f in findings] == [("repro/sim/use.py", 4)]


def test_env_and_setorder_taint_flagged():
    codes = {f.code for f in semantic_findings(TAINT_TREE)}
    assert "SPB703" in codes
    assert "SPB704" in codes


def test_sorted_sanitizes_set_order():
    findings = semantic_findings(TAINT_TREE, codes=["SPB704"])
    assert len(findings) == 1  # only order_events; sorted_events is clean
    assert "dedupe" in findings[0].message


def test_project_rule_suppressions_honoured(tmp_path):
    # Rebuild the taint fixture with a suppression on the flagged line.
    src = (TAINT_TREE / "repro" / "sim" / "engine.py").read_text()
    patched = src.replace(
        'result["t"] = timestamp()',
        'result["t"] = timestamp()  # secpb-lint: disable=SPB701',
    )
    assert patched != src
    root = tmp_path / "tree"
    for path in TAINT_TREE.rglob("*.py"):
        rel = path.relative_to(TAINT_TREE)
        out = root / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(patched if rel.name == "engine.py" else path.read_text())
    findings = semantic_findings(root, codes=["SPB701"])
    assert findings == []


# ----------------------------------------------------------------------
# SPB801-802: artifact-IO reachability


def test_laundered_json_dump_flagged_spb802():
    findings = semantic_findings(IO_TREE, codes=["SPB802"])
    by_message = {f.message for f in findings}
    assert any("dump_json" in m for m in by_message)
    assert any("leaky_write" in m for m in by_message)
    # The sanctioned write_artifact path must stay clean.
    assert not any("save_clean" in m for m in by_message)


def test_durability_leak_flagged_spb801():
    findings = semantic_findings(IO_TREE, codes=["SPB801"])
    assert len(findings) == 1
    assert "_raw2" in findings[0].message
    assert "save_leaky" in findings[0].message


# ----------------------------------------------------------------------
# SPB901: cross-module exception flow


def test_swallowed_crash_exception_flagged_spb901():
    findings = semantic_findings(EXC_TREE, codes=["SPB901"])
    assert len(findings) == 1
    finding = findings[0]
    assert "CrashVerdictError" in finding.message
    assert "verify_recovery" in finding.message
    assert finding.path.endswith("repro/analysis/grader.py")


def test_logging_handler_is_compliant():
    findings = semantic_findings(EXC_TREE, codes=["SPB901"])
    # grade_loud logs before degrading: exactly one finding (grade).
    assert len(findings) == 1


# ----------------------------------------------------------------------
# CLI composition


def test_json_report_includes_semantic_codes(capsys):
    assert lint_main([str(TAINT_TREE), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"].get("SPB701") == 1
    assert payload["counts"].get("SPB102") == 1


def test_list_rules_includes_semantic_codes(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SPB701", "SPB702", "SPB703", "SPB704", "SPB801", "SPB802", "SPB901"):
        assert code in out


def test_select_semantic_code_runs_only_that_family(capsys):
    assert lint_main([str(TAINT_TREE), "--select", "SPB701"]) == 1
    out = capsys.readouterr().out
    assert "SPB701" in out
    assert "SPB102" not in out


@pytest.mark.parametrize("tree", ["taint_tree", "io_tree", "exc_tree"])
def test_fixture_json_report_is_pinned(tree):
    """``python -m repro.lint <tree> --format json`` from the repo root
    prints exactly the committed report (tests/data/semantic/*.lint.json)."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            f"tests/data/semantic/{tree}",
            "--format",
            "json",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert proc.stdout == (FIXTURES / f"{tree}.lint.json").read_text()


# ----------------------------------------------------------------------
# one parse for both rule kinds


def test_same_named_modules_all_get_per_file_rules():
    """taint_tree's repro/sim/engine.py and src's share a dotted name;
    the per-file rules must still see the fixture's direct time.time()."""
    findings = lint_paths([TAINT_TREE, REPO_ROOT / "src"])
    assert any(
        f.code == "SPB102"
        and f.path.endswith("taint_tree/repro/sim/engine.py")
        and f.line == 19
        for f in findings
    )


@pytest.mark.parametrize("tree", [TAINT_TREE, IO_TREE, EXC_TREE], ids=lambda p: p.name)
def test_each_import_root_is_its_own_program(tree):
    """A fixture tree's repro package and src's never merge into one
    model: linting both reports exactly the tree's own findings (src is
    clean)."""
    assert lint_paths([tree, REPO_ROOT / "src"]) == lint_paths([tree])
