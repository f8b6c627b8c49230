"""Tests for repro.cli — the command-line interface."""

from pathlib import Path

import pytest

from repro.analysis.runner import clear_result_memo
from repro.cli import build_parser, main

LINT_FIXTURE = (
    Path(__file__).resolve().parent / "data" / "semantic" / "taint_tree"
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "not-a-benchmark"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cobcm" in out
        assert "table4" in out
        assert "gamess" in out

    def test_advisor(self, capsys):
        assert main(["advisor", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "recommended: cm" in out

    def test_advisor_li_thin_with_store_buffer(self, capsys):
        assert main(["advisor", "1.0", "--technology", "li-thin", "--store-buffer"]) == 0
        assert "Li-Thin" in capsys.readouterr().out

    def test_recover_demo(self, capsys):
        assert main(["recover-demo", "--scheme", "cobcm"]) == 0
        out = capsys.readouterr().out
        assert "recovery ok: True" in out
        assert "failed for 64/64" in out

    def test_simulate_single_scheme(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "leslie3d",
                    "--scheme",
                    "cm",
                    "--num-ops",
                    "2000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bbb" in out
        assert "cm" in out
        assert "overhead" in out

    def test_experiment_table5(self, capsys):
        assert main(["experiment", "table5"]) == 0
        assert "s_eadr" in capsys.readouterr().out

    def test_experiment_table4_small(self, capsys):
        assert main(["experiment", "table4", "--num-ops", "1500"]) == 0
        assert "cobcm" in capsys.readouterr().out


class TestExtensionCommands:
    def test_recovery_time(self, capsys):
        from repro.cli import main

        assert main(["recovery-time", "--entries", "8"]) == 0
        out = capsys.readouterr().out
        assert "cobcm" in out and "us total" in out

    def test_multicore(self, capsys):
        from repro.cli import main

        assert main(["multicore", "--scheme", "cobcm", "--num-ops", "600"]) == 0
        out = capsys.readouterr().out
        assert "8 core(s)" in out
        assert "migrations" in out

    def test_workloads(self, capsys):
        from repro.cli import main

        assert main(["workloads", "--num-ops", "2000"]) == 0
        out = capsys.readouterr().out
        assert "gamess" in out and "NWPE" in out


class TestLintCommand:
    def test_lint_src_clean(self, capsys):
        from repro.cli import main

        assert main(["lint", "src"]) == 0
        assert "secpb-lint: clean" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SPB101" in out and "SPB403" in out

    def test_lint_select_forwarded(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("jobs = run_jobs((i for i in range(3)))\n")
        assert main(["lint", str(bad), "--select", "SPB403"]) == 1
        assert "SPB403" in capsys.readouterr().out

    def test_lint_lists_robustness_rule(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        assert "SPB501" in capsys.readouterr().out


class TestOneLintParser:
    """`repro lint` hands its arguments to repro.lint.cli unparsed."""

    @pytest.mark.parametrize(
        "args, code",
        [
            ([str(LINT_FIXTURE)], 1),
            ([str(LINT_FIXTURE), "--format", "json"], 1),
            (["--select", "SPB701", str(LINT_FIXTURE)], 1),
            (["--list-rules"], 0),
            ([str(LINT_FIXTURE / "no_such_dir")], 2),
        ],
        ids=["text", "json", "select", "list-rules", "missing-path"],
    )
    def test_same_bytes_and_exit_code(self, capsys, args, code):
        from repro.lint.cli import main as lint_main

        assert lint_main(args) == code
        direct = capsys.readouterr()
        assert main(["lint", *args]) == code
        assert capsys.readouterr() == direct

    def test_lint_help_is_the_lint_parsers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        assert "--format" in capsys.readouterr().out

    def test_lint_parser_rejects_unknown_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro lint")
        assert "unrecognized arguments: --bogus" in err

    def test_other_subcommands_still_reject_unknown_arguments(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestOutputPaths:
    """Every output-path flag is checked before the command does any work."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["experiment", "table5"], "--save"),
            (["experiment", "table4", "--num-ops", "500"], "--metrics"),
            (["experiment", "table4", "--num-ops", "500"], "--trace"),
            (["experiment", "table4", "--num-ops", "500"], "--journal"),
            (
                [
                    "faultcampaign", "--schemes", "cobcm",
                    "--crash-points", "1", "--num-stores", "10",
                ],
                "--save",
            ),
            (["chaos", "--systematic"], "--save"),
            (["trace", "--num-ops", "200"], "--out"),
            (["trace", "--num-ops", "200", "--out", "t.json"], "--jsonl"),
            (["trace", "--num-ops", "200", "--out", "t.json"], "--metrics"),
        ],
    )
    def test_missing_directory_rejected_up_front(
        self, capsys, tmp_path, monkeypatch, command, flag
    ):
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "missing" / "dir"
        path = missing / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, str(path)])
        assert str(exc.value) == (
            f"error: {flag} {path}: directory {missing} does not exist"
        )
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_bare_file_name_is_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "table5", "--save", "t5.json"]) == 0
        assert "s_eadr" in capsys.readouterr().out
        assert (tmp_path / "t5.json").is_file()


_RUN_SUBCOMMANDS = (
    ["experiment", "table4"],
    ["simulate", "gamess"],
    ["multicore"],
    ["workloads"],
    ["profile"],
    ["trace"],
)
_BAD_RUN_INPUTS = (
    [
        (command, "--num-ops", value)
        for command in _RUN_SUBCOMMANDS
        for value in ("0", "-5")
    ]
    + [(command, "--seed", "-1") for command in _RUN_SUBCOMMANDS]
    + [
        (command, "--warmup", value)
        for command in (["simulate", "gamess"], ["multicore"], ["trace"])
        for value in ("1.5", "1.0", "-0.1", "nan")
    ]
    + [
        (command, "--jobs", value)
        for command in (["experiment", "table4"], ["faultcampaign"])
        for value in ("0", "-2")
    ]
    + [
        (command, "--deadline", value)
        for command in (["experiment", "table4"], ["faultcampaign"])
        for value in ("0", "-5")
    ]
    + [
        (["chaos"], flag, value)
        for flag in ("--ops", "--minutes", "--max-iterations", "--jobs")
        for value in ("0", "-1")
    ]
    + [(["recovery-time"], "--entries", value) for value in ("0", "-3")]
    + [(["profile"], "--top", value) for value in ("0", "-1")]
    + [(["multicore"], "--share", value) for value in ("1.5", "-0.1")]
    + [
        (["faultcampaign"], flag, value)
        for flag, value in (
            ("--num-stores", "0"),
            ("--asids", "0"),
            ("--crash-points", "-1"),
            ("--schemes", "bogus"),
            ("--timeout", "-1"),
        )
    ]
)


class TestRunInputValidation:
    """Out-of-range run inputs are usage errors, caught while parsing."""

    @pytest.mark.parametrize(
        "command, flag, value",
        _BAD_RUN_INPUTS,
        ids=[f"{c[0]}{f}={v}" for c, f, v in _BAD_RUN_INPUTS],
    )
    def test_rejected_with_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}: " in captured.err

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_advisor_budget_rejected_with_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["advisor", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument budget: " in captured.err

    def test_range_boundaries_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "gamess", "--num-ops", "1", "--seed", "0", "--warmup", "0"]
        )
        assert (args.num_ops, args.seed, args.warmup) == (1, 0, 0.0)
        assert parser.parse_args(["experiment", "table4", "--jobs", "1"]).jobs == 1
        assert parser.parse_args(["trace", "--warmup", "0.99"]).warmup == 0.99
        assert parser.parse_args(["multicore", "--share", "0"]).share == 0.0
        assert parser.parse_args(["multicore", "--share", "1"]).share == 1.0
        assert parser.parse_args(["recovery-time", "--entries", "1"]).entries == 1
        assert parser.parse_args(["profile", "--top", "1"]).top == 1
        campaign = parser.parse_args(["faultcampaign", "--crash-points", "0"])
        assert campaign.crash_points == 0
        assert parser.parse_args(["advisor", "0.5"]).budget == 0.5
        deadline = parser.parse_args(["experiment", "table4", "--deadline", "0.5"])
        assert deadline.deadline == 0.5
        chaos = parser.parse_args(
            "chaos --ops 1 --max-iterations 1 --minutes 0.01 --jobs 1".split()
        )
        assert (chaos.ops, chaos.max_iterations, chaos.jobs) == (1, 1, 1)
        assert chaos.minutes == 0.01


class TestFaultCampaignCommand:
    def test_small_campaign_passes(self, capsys):
        code = main(
            [
                "faultcampaign",
                "--schemes", "cobcm",
                "--crash-points", "1",
                "--num-stores", "20",
                "--no-minimize",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failed" in out
        assert "cobcm" in out

    def test_unknown_scheme_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["faultcampaign", "--schemes", "cm,not-a-scheme"])
        assert exc.value.code == 2
        assert "unknown scheme 'not-a-scheme'" in capsys.readouterr().err

    def test_save_report_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "report.json"
        code = main(
            [
                "faultcampaign",
                "--schemes", "nogap",
                "--crash-points", "1",
                "--num-stores", "20",
                "--no-minimize",
                "--save", str(path),
            ]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["failed"] == []
        assert payload["total"] > 0

    def test_replay_saved_reproducer(self, capsys, tmp_path):
        from repro.fault import FaultCase, save_reproducer

        case = FaultCase(
            case_id="replay/demo",
            scheme="cobcm",
            crash_kind="system",
            seed=3,
            num_stores=20,
            crash_index=10,
            working_set=12,
            num_asids=2,
        )
        path = save_reproducer(case, tmp_path / "case.json")
        assert main(["faultcampaign", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS replay/demo" in out


class TestResumableFlags:
    """ISSUE 5: --journal/--resume/--deadline wiring and guard rails."""

    def _case(self, **overrides):
        from repro.fault import FaultCase

        defaults = dict(
            case_id="replay/demo",
            scheme="cobcm",
            crash_kind="system",
            seed=3,
            num_stores=20,
            crash_index=10,
            working_set=12,
            num_asids=2,
        )
        defaults.update(overrides)
        return FaultCase(**defaults)

    def test_deadline_requires_journal_experiment(self):
        with pytest.raises(SystemExit, match="requires --journal"):
            main(["experiment", "table4", "--deadline", "5"])

    def test_deadline_requires_journal_faultcampaign(self):
        with pytest.raises(SystemExit, match="requires --journal"):
            main(
                ["faultcampaign", "--schemes", "cobcm", "--deadline", "5"]
            )

    def test_journal_rejected_for_instant_experiments(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-driven"):
            main(
                [
                    "experiment", "table5",
                    "--journal", str(tmp_path / "j.jsonl"),
                ]
            )

    def test_experiment_journal_then_resume_identical(self, capsys, tmp_path):
        journal = tmp_path / "exp.jsonl"
        args = ["experiment", "table4", "--num-ops", "1500"]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        clear_result_memo()  # the journaled run must simulate, too
        assert main(args + ["--journal", str(journal)]) == 0
        journaled = capsys.readouterr().out
        assert journaled == baseline
        # Every job is journaled, so the resume re-runs nothing and
        # renders the identical artifact.
        assert main(args + ["--resume", str(journal)]) == 0
        assert capsys.readouterr().out == baseline

    def test_experiment_resume_stale_journal_fails(self, capsys, tmp_path):
        journal = tmp_path / "exp.jsonl"
        assert main(
            [
                "experiment", "table4", "--num-ops", "1500",
                "--journal", str(journal),
            ]
        ) == 0
        capsys.readouterr()
        # Different num_ops -> different spec fingerprint -> stale.
        assert main(
            [
                "experiment", "table4", "--num-ops", "2000",
                "--resume", str(journal),
            ]
        ) == 2
        assert "different spec" in capsys.readouterr().err

    def test_campaign_journal_then_resume_identical(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        args = [
            "faultcampaign", "--schemes", "cobcm", "--crash-points", "1",
            "--num-stores", "20", "--no-minimize",
        ]
        assert main(args) == 0
        baseline = capsys.readouterr().out
        assert main(args + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(args + ["--resume", str(journal)]) == 0
        assert capsys.readouterr().out == baseline

    def test_campaign_resume_stale_journal_fails(self, capsys, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        assert main(
            [
                "faultcampaign", "--schemes", "cobcm", "--crash-points", "1",
                "--num-stores", "20", "--no-minimize",
                "--journal", str(journal),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "faultcampaign", "--schemes", "nogap", "--crash-points", "1",
                "--num-stores", "20", "--no-minimize",
                "--resume", str(journal),
            ]
        ) == 2
        assert "different spec" in capsys.readouterr().err

    def test_replay_divergence_exits_three_with_diff(self, capsys, tmp_path):
        import dataclasses

        from repro.fault import save_reproducer
        from repro.fault.campaign import execute_case

        case = self._case()
        real = execute_case(case)
        tampered = dataclasses.replace(real, observed="something-else")
        path = save_reproducer(case, tmp_path / "case.json", result=tampered)
        assert main(["faultcampaign", "--replay", str(path)]) == 3
        out = capsys.readouterr().out
        assert "DIVERGED replay/demo" in out
        assert "--- recorded verdict" in out
        assert "+++ replayed verdict" in out
        assert "something-else" in out

    def test_replay_matching_verdict_passes(self, capsys, tmp_path):
        from repro.fault import save_reproducer
        from repro.fault.campaign import execute_case

        case = self._case()
        path = save_reproducer(
            case, tmp_path / "case.json", result=execute_case(case)
        )
        assert main(["faultcampaign", "--replay", str(path)]) == 0
        assert "PASS replay/demo" in capsys.readouterr().out

    def test_replay_rejects_an_edited_reproducer(self, capsys, tmp_path):
        # The saved manifest no longer matches, so the edited case must not
        # replay (and blame a code change by diverging).
        from repro.fault import save_reproducer
        from repro.fault.campaign import execute_case

        case = self._case(crash_index=13)
        path = save_reproducer(case, tmp_path / "case.json", result=execute_case(case))
        text = path.read_text()
        assert '"crash_index": 13' in text
        path.write_text(text.replace('"crash_index": 13', '"crash_index": 14'))
        assert main(["faultcampaign", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unusable reproducer:" in captured.err
        assert "mismatch" in captured.err

    def test_replay_rejects_a_missing_reproducer(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["faultcampaign", "--replay", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unusable reproducer:" in captured.err
        assert "missing.json" in captured.err

    def test_replay_hand_written_reproducer_without_manifest(self, capsys, tmp_path):
        import dataclasses
        import json

        from repro.fault import case_to_dict
        from repro.fault.campaign import execute_case

        case = self._case()
        payload = case_to_dict(case)
        payload["recorded_result"] = dataclasses.asdict(execute_case(case))
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(payload))
        assert main(["faultcampaign", "--replay", str(path)]) == 0
        assert "PASS replay/demo" in capsys.readouterr().out

    def test_replay_version1_reproducer_still_pass_fail(self, capsys, tmp_path):
        # A version-1 file (no recorded_result) can never diverge; the
        # verdict is plain pass/fail, asserting today's documented
        # behavior for pre-ISSUE-5 reproducers.
        import json

        from repro.fault import case_to_dict

        payload = case_to_dict(self._case())
        payload["version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        assert main(["faultcampaign", "--replay", str(path)]) == 0
        assert "PASS replay/demo" in capsys.readouterr().out


class TestTraceCommand:
    """ISSUE 6: the `repro trace` subcommand."""

    def test_writes_schema_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import load_trace_schema, validate

        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "--benchmark", "gamess", "--scheme", "m",
                    "--num-ops", "2000", "--out", str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "trace event(s)" in captured.out
        assert "Perfetto" in captured.err
        payload = json.loads(out.read_text())
        assert validate(payload, load_trace_schema()) == []

    def test_jsonl_and_metrics_sidecars(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "trace", "--num-ops", "1500", "--out", str(out),
                    "--jsonl", str(jsonl), "--metrics", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)
        payload = json.loads(metrics.read_text())
        assert payload["sim.runs"]["value"] == 1.0
        assert payload["sim.runs_by_scheme.m"]["value"] == 1.0

    def test_bbb_baseline_traces(self, capsys, tmp_path):
        out = tmp_path / "bbb.json"
        assert (
            main(
                [
                    "trace", "--scheme", "bbb", "--num-ops", "1000",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert "scheme bbb" in capsys.readouterr().out
        assert out.exists()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--scheme", "nope"])


class TestObservabilityFlags:
    """ISSUE 6: --metrics/--trace on experiment and faultcampaign, and
    the unified --verbose/--quiet pair on every subcommand."""

    def test_experiment_metrics_and_trace(self, capsys, tmp_path):
        import json

        from repro.obs import load_trace_schema, validate

        metrics = tmp_path / "exp.prom"
        trace = tmp_path / "exp-trace.json"
        assert (
            main(
                [
                    "experiment", "table4", "--num-ops", "1500",
                    "--metrics", str(metrics), "--trace", str(trace),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "cobcm" in captured.out
        assert "metrics saved to" in captured.err
        assert "trace saved to" in captured.err
        text = metrics.read_text()
        # 18 benchmarks x (1 bbb baseline + 6 schemes) = 126 jobs.
        assert "runner_tasks_completed 126" in text
        payload = json.loads(trace.read_text())
        assert validate(payload, load_trace_schema()) == []
        jobs = [e for e in payload["traceEvents"] if e["name"] == "runner.job"]
        assert len(jobs) == 126

    def test_metrics_rejected_for_instant_experiments(self, tmp_path):
        with pytest.raises(SystemExit, match="trace-driven"):
            main(
                [
                    "experiment", "table5",
                    "--metrics", str(tmp_path / "m.prom"),
                ]
            )

    def test_faultcampaign_metrics_json(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "campaign.json"
        assert (
            main(
                [
                    "faultcampaign", "--schemes", "m", "--crash-points", "1",
                    "--num-stores", "20", "--no-minimize",
                    "--metrics", str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(metrics.read_text())
        assert payload["campaign.pass_rate"]["value"] == 1.0
        assert (
            payload["campaign.cases_total"]["value"]
            == payload["campaign.cases_passed"]["value"]
        )

    def test_verbose_and_quiet_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "-v", "-q"])

    def test_every_subcommand_accepts_verbosity_flags(self):
        parser = build_parser()
        for argv in (
            ["list", "-v"],
            ["simulate", "gamess", "-q"],
            ["experiment", "table4", "--verbose"],
            ["faultcampaign", "--quiet"],
            ["trace", "-v"],
            ["multicore", "-q"],
            ["lint", "-v"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "verbose") and hasattr(args, "quiet")

    def test_multicore_warmup_flag(self, capsys):
        assert (
            main(
                [
                    "multicore", "--scheme", "m", "--num-ops", "600",
                    "--warmup", "0.25",
                ]
            )
            == 0
        )
        assert "8 core(s)" in capsys.readouterr().out


class TestChaosCommand:
    """ISSUE 9: the `repro chaos` subcommand."""

    def test_unknown_fault_kind_exits_two(self, capsys):
        assert main(["chaos", "--faults", "power_loss"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_shm_fault_kind_exits_two(self, capsys):
        # The fault plane has no shared-memory kinds: nothing could fire
        # them, so the old names are unknown kinds.
        assert main(["chaos", "--faults", "attach_enoent"]) == 2
        captured = capsys.readouterr()
        assert "unknown fault kind(s) attach_enoent" in captured.err
        assert captured.out == ""

    def test_empty_fault_list_exits_two(self, capsys):
        assert main(["chaos", "--faults", ","]) == 2
        captured = capsys.readouterr()
        assert "no fault kinds" in captured.err
        assert captured.out == ""

    def test_unusable_reproducer_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        assert main(["chaos", "--replay", str(bad)]) == 2
        assert "unusable reproducer" in capsys.readouterr().err

    def test_single_soak_iteration_reports_and_saves(self, capsys, tmp_path):
        import json

        from repro.durability import ArtifactStatus, verify_artifact

        report_path = tmp_path / "report.json"
        code = main(
            [
                "chaos",
                "--seed", "2023",
                "--minutes", "1.0",
                "--max-iterations", "1",
                "--jobs", "1",
                "--workdir", str(tmp_path / "work"),
                "--save", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "envfault soak: 1 state(s) checked" in out
        assert "all invariants held" in out
        assert verify_artifact(report_path) is ArtifactStatus.OK
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["mode"] == "soak"
