"""Tier-1 gate: the shipped source tree is secpb-lint clean.

This is the CI contract from the linting PR: `repro lint src/` exits 0,
so every invariant family (determinism, scheme table, stats hygiene,
pool safety) is machine-checked on every change — including the
whole-program semantic pass (SPB7xx taint, SPB8xx IO reachability,
SPB9xx exception flow) added with the semantic-analysis PR.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import analyze_paths, lint_paths, run_project_rules
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURE_TREE = REPO_ROOT / "tests" / "data" / "semantic" / "taint_tree"


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_source_tree_is_semantically_clean():
    """Zero SPB7xx/8xx/9xx findings on the shipped tree — the gate the
    interprocedural rules are held to, exactly like the per-file ones."""
    analysis = analyze_paths([SRC])
    findings = run_project_rules(analysis)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert not analysis.project.parse_errors


def test_semantic_analysis_covers_the_whole_tree():
    """The project model really is whole-program: every core package is
    in the module map and the call graph is non-trivial."""
    analysis = analyze_paths([SRC])
    modules = analysis.project.modules
    for package in (
        "repro.sim",
        "repro.core.simulator",
        "repro.security.engine",
        "repro.durability.artifacts",
        "repro.analysis.runner",
        "repro.fault.campaign",
    ):
        assert package in modules, f"{package} missing from project model"
    assert len(analysis.graph.edges) > 100


def test_cli_exits_zero_on_clean_tree(capsys):
    assert lint_main([str(SRC)]) == 0
    assert "secpb-lint: clean" in capsys.readouterr().out


def test_cli_json_on_clean_tree(capsys):
    assert lint_main([str(SRC), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 0 and payload["findings"] == []


def test_cli_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "repro_fixture.py"
    bad.write_text(
        "def fixup(result):\n    result.stats['ppti'] = 0.0\n"
    )
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SPB302" in out


def test_cli_writes_nothing_to_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert lint_main([str(SRC)]) == 0
    assert lint_main([str(FIXTURE_TREE)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_missing_path(capsys):
    assert lint_main([str(REPO_ROOT / "no_such_dir_xyz")]) == 2


def test_cli_rejects_unknown_code(capsys):
    assert lint_main([str(SRC), "--select", "SPB999"]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "SPB101",
        "SPB102",
        "SPB103",
        "SPB104",
        "SPB301",
        "SPB302",
        "SPB303",
        "SPB401",
        "SPB402",
        "SPB403",
    ):
        assert code in out
