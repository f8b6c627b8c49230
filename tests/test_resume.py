"""Resumable runs: journaled checkpoints, interrupts, byte-identity.

Acceptance anchors (ISSUE 5):

* ``run_tasks`` skips journaled results, fires the checkpoint hook for
  each fresh one, and a tripped stop token raises ``RunInterrupted``
  carrying everything completed so far;
* a campaign interrupted at any prefix and then resumed renders a
  report **byte-identical** to an uninterrupted run (including the
  minimized reproducer set);
* SIGKILL partway through a ``--jobs`` campaign leaves a journal that
  is a valid prefix — resuming from it reproduces the baseline report
  byte-for-byte (subprocess test at the bottom);
* stale journals (different spec fingerprint) are rejected loudly;
* (ISSUE 8) SIGTERM mid-``--jobs`` experiment exits resumable with zero
  leaked ``/dev/shm`` trace segments, and ``--resume`` renders an
  artifact byte-identical to the uninterrupted run.
"""

import dataclasses
import glob
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro.analysis.runner import JobFailure, run_tasks
from repro.durability import (
    EXIT_RESUMABLE,
    RunInterrupted,
    StaleJournalError,
    StopToken,
    read_journal,
    verify_artifact,
    ArtifactStatus,
)
from repro.fault import CampaignSpec, run_campaign
from repro.fault import campaign as campaign_mod
from repro.fault.campaign import (
    JOURNAL_KIND,
    build_cases,
    outcome_from_payload,
    outcome_to_payload,
    spec_payload,
)


@dataclass(frozen=True)
class Task:
    key: str
    value: int = 0


def _double(task: Task) -> int:
    return task.value * 2


def _never_called(task: Task) -> int:
    raise AssertionError(f"journaled task {task.key} was re-executed")


class CountingStop(StopToken):
    """Trips itself once ``check`` has been polled ``after`` times."""

    def __init__(self, after: int):
        super().__init__()
        self.after = after
        self.polls = 0

    def check(self) -> bool:
        self.polls += 1
        if self.polls > self.after:
            self.trip(f"tripped after {self.after} poll(s)")
        return self.triggered


class TestRunTasksResume:
    def test_completed_tasks_never_reexecute(self):
        tasks = [Task("a", 1), Task("b", 2), Task("c", 3)]
        results = run_tasks(
            tasks, _never_called, workers=1,
            completed={"a": 2, "b": 4, "c": 6},
        )
        assert results == {"a": 2, "b": 4, "c": 6}

    def test_partial_completed_runs_only_remainder(self):
        tasks = [Task("a", 1), Task("b", 2), Task("c", 3)]
        seen = []
        results = run_tasks(
            tasks, _double, workers=1,
            completed={"b": 4},
            on_result=lambda key, value: seen.append(key),
        )
        assert results == {"a": 2, "b": 4, "c": 6}
        # The hook fires for fresh results only — journaled ones are
        # already on disk.
        assert seen == ["a", "c"]

    def test_resumed_equals_uninterrupted(self):
        tasks = [Task(str(i), i) for i in range(8)]
        clean = run_tasks(tasks, _double, workers=1)
        stop = CountingStop(after=3)
        with pytest.raises(RunInterrupted) as excinfo:
            run_tasks(tasks, _double, workers=1, stop=stop)
        checkpoint = excinfo.value.completed
        assert 0 < len(checkpoint) < len(tasks)
        resumed = run_tasks(tasks, _double, workers=1, completed=checkpoint)
        assert resumed == clean
        assert list(resumed) == list(clean)

    def test_serial_interrupt_carries_prefix(self):
        tasks = [Task(str(i), i) for i in range(6)]
        with pytest.raises(RunInterrupted) as excinfo:
            run_tasks(tasks, _double, workers=1, stop=CountingStop(after=2))
        assert excinfo.value.completed == {"0": 0, "1": 2}
        assert "tripped after 2" in excinfo.value.reason

    def test_interrupt_merges_journaled_prefix(self):
        tasks = [Task(str(i), i) for i in range(6)]
        with pytest.raises(RunInterrupted) as excinfo:
            run_tasks(
                tasks, _double, workers=1,
                completed={"0": 0, "1": 2},
                stop=CountingStop(after=1),
            )
        # The checkpoint sees journal + fresh, so nothing re-runs twice.
        assert excinfo.value.completed == {"0": 0, "1": 2, "2": 4}

    def test_pool_interrupt_salvages_and_raises(self):
        tasks = [Task(str(i), i) for i in range(12)]
        stop = StopToken()
        collected = []

        def trip_after_two(key, value):
            collected.append(key)
            if len(collected) == 2:
                stop.trip("test interrupt")

        with pytest.raises(RunInterrupted) as excinfo:
            run_tasks(
                tasks, _double, workers=4,
                stop=stop, on_result=trip_after_two,
            )
        completed = excinfo.value.completed
        assert len(completed) >= 2
        # Every salvaged value is correct, and a resume finishes the job.
        assert all(completed[key] == int(key) * 2 for key in completed)
        resumed = run_tasks(tasks, _double, workers=4, completed=completed)
        assert resumed == run_tasks(tasks, _double, workers=1)

    def test_untripped_token_is_free(self):
        tasks = [Task("a", 1)]
        assert run_tasks(
            tasks, _double, workers=1, stop=StopToken()
        ) == {"a": 2}


SMALL_SPEC = CampaignSpec(
    schemes=("cobcm", "nogap"), crash_points=2, gapped_points=3,
    num_stores=30,
)


class TestCampaignJournal:
    def test_journal_records_every_case(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        report = run_campaign(
            SMALL_SPEC, jobs=1, minimize=False, journal=journal_path
        )
        journal = read_journal(journal_path)
        assert journal.kind == JOURNAL_KIND
        assert len(journal.entries) == report.total
        # Tuples land as JSON lists; the canonical fingerprint is the
        # identity that matters.
        from repro.durability import fingerprint

        assert journal.fingerprint == fingerprint(spec_payload(SMALL_SPEC))

    def test_interrupted_then_resumed_byte_identical(self, tmp_path):
        baseline = run_campaign(SMALL_SPEC, jobs=1, minimize=False)
        journal_path = tmp_path / "campaign.jsonl"
        with pytest.raises(RunInterrupted):
            run_campaign(
                SMALL_SPEC, jobs=1, minimize=False,
                journal=journal_path, stop=CountingStop(after=4),
            )
        prefix = read_journal(journal_path)
        total = len(build_cases(SMALL_SPEC))
        assert 0 < len(prefix.entries) < total
        resumed = run_campaign(
            SMALL_SPEC, jobs=1, minimize=False,
            journal=journal_path, resume=True,
        )
        assert resumed.to_json() == baseline.to_json()
        assert resumed.render() == baseline.render()

    def test_resume_with_reproducers_byte_identical(self, tmp_path, monkeypatch):
        real_execute = campaign_mod.execute_case

        def grade_brownouts_wrong(case):
            result = real_execute(case)
            if "brownout" in case.case_id:
                result = dataclasses.replace(
                    result, passed=False, observed="forced-failure"
                )
            return result

        monkeypatch.setattr(
            campaign_mod, "execute_case", grade_brownouts_wrong
        )
        spec = CampaignSpec(
            schemes=("cobcm",), crash_points=1, gapped_points=1,
            num_stores=20,
        )
        baseline = run_campaign(spec, jobs=1, minimize=True)
        assert baseline.reproducers  # the forced failures minimized
        journal_path = tmp_path / "campaign.jsonl"
        with pytest.raises(RunInterrupted):
            run_campaign(
                spec, jobs=1, minimize=True,
                journal=journal_path, stop=CountingStop(after=2),
            )
        resumed = run_campaign(
            spec, jobs=1, minimize=True, journal=journal_path, resume=True,
        )
        assert resumed.to_json() == baseline.to_json()
        assert [r.json for r in resumed.reproducers] == [
            r.json for r in baseline.reproducers
        ]

    def test_stale_journal_rejected(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        run_campaign(SMALL_SPEC, jobs=1, minimize=False, journal=journal_path)
        other = dataclasses.replace(SMALL_SPEC, seed=999)
        with pytest.raises(StaleJournalError, match="different spec"):
            run_campaign(
                other, jobs=1, minimize=False,
                journal=journal_path, resume=True,
            )

    def test_fresh_run_truncates_old_journal(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        run_campaign(SMALL_SPEC, jobs=1, minimize=False, journal=journal_path)
        before = journal_path.read_bytes()
        run_campaign(SMALL_SPEC, jobs=1, minimize=False, journal=journal_path)
        assert journal_path.read_bytes() == before

    def test_case_result_payload_roundtrip(self):
        case = build_cases(SMALL_SPEC)[0]
        result = campaign_mod.execute_case(case)
        payload = outcome_to_payload(result)
        json.dumps(payload)  # must be JSON-clean
        assert outcome_from_payload(payload) == result

    def test_job_failure_payload_roundtrip(self):
        failure = JobFailure(
            key=("case", 3), error_type="RuntimeError", message="boom",
            traceback="Traceback ...", attempts=2, timed_out=False,
        )
        payload = outcome_to_payload(failure)
        json.dumps(payload)
        assert outcome_from_payload(payload) == failure

    def test_unknown_payload_kind_rejected(self):
        with pytest.raises(ValueError, match="payload kind"):
            outcome_from_payload({"kind": "mystery", "data": {}})


CLI = [sys.executable, "-m", "repro", "faultcampaign"]
CAMPAIGN_ARGS = [
    "--crash-points", "6", "--num-stores", "400", "--jobs", "2",
]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _shm_segments(pid):
    """Trace segments owned by ``pid`` still present in /dev/shm."""
    return glob.glob(f"/dev/shm/secpb_shm_{pid}_*")


def _live_group_members(pgid):
    """PIDs in process group ``pgid`` that are not (yet) zombies."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited since the listing
        # Fields after the parenthesised command name: state, ppid, pgrp.
        state, _ppid, group = stat.rpartition(")")[2].split()[:3]
        if int(group) == pgid and state != "Z":
            live.append(int(entry))
    return live


class TestKillMidRun:
    """The satellite: SIGKILL a --jobs campaign, resume, compare bytes."""

    def test_sigkill_journal_prefix_resume_byte_identical(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        subprocess.run(
            CLI + CAMPAIGN_ARGS + ["--save", str(baseline)],
            check=True, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_path = tmp_path / "campaign.jsonl"
        # A session of its own puts the CLI, its pool workers and its
        # resource tracker in one process group the test can kill whole.
        proc = subprocess.Popen(
            CLI + CAMPAIGN_ARGS + ["--journal", str(journal_path)],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            # Wait for a few checkpointed cases, then kill -9 mid-run.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if len(journal_path.read_bytes().splitlines()) >= 4:
                        break
                except OSError:
                    pass
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()
            # Killing the CLI orphans its children; take them down too.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        # SIGKILL lands asynchronously: give the group a moment to die.
        # Orphans may stay zombies when nothing reaps them; that is fine.
        deadline = time.monotonic() + 10
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _live_group_members(proc.pid) == []

        # The journal must be a valid prefix: parseable header, every
        # complete line a replayable record, at most a torn tail.
        journal = read_journal(journal_path)
        assert journal.kind == JOURNAL_KIND
        assert len(journal.entries) >= 1

        resumed = tmp_path / "resumed.json"
        done = subprocess.run(
            CLI + CAMPAIGN_ARGS + [
                "--resume", str(journal_path), "--save", str(resumed),
            ],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert done.returncode == 0
        assert resumed.read_bytes() == baseline.read_bytes()
        # Both reports carry verifiable sidecar manifests.
        assert verify_artifact(baseline) is ArtifactStatus.OK
        assert verify_artifact(resumed) is ArtifactStatus.OK

    def test_sigterm_experiment_no_shm_leak_resume_byte_identical(
        self, tmp_path
    ):
        """ISSUE 8: SIGTERM mid-sweep leaves zero /dev/shm segments and
        a journal whose resume renders the identical artifact."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("requires /dev/shm")
        experiment = [sys.executable, "-m", "repro", "experiment", "table4"]
        args = ["--num-ops", "1500", "--jobs", "2"]

        baseline = tmp_path / "baseline.json"
        clean = subprocess.Popen(
            experiment + args + ["--save", str(baseline)],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert clean.wait(timeout=300) == 0
        # Normal exit: the atexit owner cleanup ran.
        assert _shm_segments(clean.pid) == []

        journal_path = tmp_path / "experiment.jsonl"
        proc = subprocess.Popen(
            experiment + args + ["--journal", str(journal_path)],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                try:
                    if len(journal_path.read_bytes().splitlines()) >= 3:
                        break
                except OSError:
                    pass
                if proc.poll() is not None:
                    break
                time.sleep(0.01)
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        finally:
            returncode = proc.wait(timeout=300)
        if returncode == 0:
            pytest.skip("sweep finished before the signal landed")
        assert returncode == EXIT_RESUMABLE
        # The graceful-shutdown checkpoint path also unlinked every
        # published trace segment the child owned.
        assert _shm_segments(proc.pid) == []

        resumed = tmp_path / "resumed.json"
        done = subprocess.Popen(
            experiment + args + [
                "--resume", str(journal_path), "--save", str(resumed),
            ],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert done.wait(timeout=300) == 0
        assert _shm_segments(done.pid) == []
        assert resumed.read_bytes() == baseline.read_bytes()

    def test_enospc_on_checkpoint_exits_resumable_byte_identical(
        self, tmp_path
    ):
        """ISSUE 9: the filesystem filling up mid-run is an interrupt,
        not a crash — exit 75, and a resume on a healthy disk renders
        the identical artifact."""
        baseline = tmp_path / "baseline.json"
        subprocess.run(
            CLI + CAMPAIGN_ARGS + ["--save", str(baseline)],
            check=True, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

        # Arm an envfault plan: the 5th journal append (header + 4
        # records) hits ENOSPC, deterministically.
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "plan_version": 1,
            "seed": 0,
            "specs": [
                {"op": "journal.write", "index": 4, "kind": "enospc"},
            ],
        }))
        journal_path = tmp_path / "campaign.jsonl"
        env = _env()
        env["SECPB_ENVFAULT"] = str(plan_path)
        first = subprocess.run(
            CLI + CAMPAIGN_ARGS + ["--journal", str(journal_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        assert first.returncode == EXIT_RESUMABLE, first.stderr.decode()
        assert b"--resume" in first.stderr

        # The journal survived as a valid prefix (ENOSPC struck before
        # the record landed, so nothing torn or half-written).
        journal = read_journal(journal_path)
        assert journal.kind == JOURNAL_KIND
        assert len(journal.entries) >= 1

        resumed = tmp_path / "resumed.json"
        done = subprocess.run(
            CLI + CAMPAIGN_ARGS + [
                "--resume", str(journal_path), "--save", str(resumed),
            ],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert done.returncode == 0
        assert resumed.read_bytes() == baseline.read_bytes()
        assert verify_artifact(resumed) is ArtifactStatus.OK

    def test_deadline_exit_code_then_resume(self, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        first = subprocess.run(
            CLI + CAMPAIGN_ARGS + [
                "--journal", str(journal_path), "--deadline", "0.2",
            ],
            env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if first.returncode == 0:
            pytest.skip("campaign finished inside the 0.2s deadline")
        assert first.returncode == EXIT_RESUMABLE
        assert b"--resume" in first.stderr
        done = subprocess.run(
            CLI + CAMPAIGN_ARGS + ["--resume", str(journal_path)],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        assert done.returncode == 0

