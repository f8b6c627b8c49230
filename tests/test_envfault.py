"""The environment-fault plane: plans, contexts, shims, checker, shrink.

Acceptance anchors (ISSUE 9):

* fault plans are pure functions of their seed, round-trip through
  versioned JSON, and reject malformed specs loudly;
* the injection context fires by ``(op, occurrence)`` exactly, records
  every hit, and coordinates one-shot faults across processes via
  ``claim_once`` markers;
* the filesystem shims implement the documented fault semantics —
  a torn write leaves exactly ``arg`` bytes on disk, ENOSPC strikes
  before any bytes move, a lying fsync returns success;
* the ``SECPB_ENVFAULT`` gate arms a plan at import in every process
  and refuses to be silently misconfigured;
* chaos reproducers save/load as versioned verified artifacts, and the
  shrinker reduces a violating plan to a minimal one that still
  violates the *same* invariant.
"""

from __future__ import annotations

import json

import pytest

from repro.envfault import (
    DEFAULT_HORIZON,
    EnvFaultContext,
    FaultPlan,
    FaultSpec,
    PlanError,
    injected,
    load_plan,
    random_plan,
)
from repro.envfault import context as context_mod
from repro.envfault import fsfault


PLAN = FaultPlan(
    seed=7,
    specs=(
        FaultSpec(op="journal.write", index=2, kind="enospc"),
        FaultSpec(op="artifact.fsync", index=0, kind="fsync_drop", count=2),
    ),
)


class TestFaultSpec:
    def test_unknown_op_rejected(self):
        with pytest.raises(PlanError, match="unknown fault op"):
            FaultSpec(op="journal.flush", index=0, kind="enospc")

    def test_kind_must_match_op(self):
        with pytest.raises(PlanError, match="cannot fire at op"):
            FaultSpec(op="journal.write", index=0, kind="worker_sigkill")

    def test_negative_index_rejected(self):
        with pytest.raises(PlanError, match="index must be"):
            FaultSpec(op="journal.write", index=-1, kind="enospc")

    def test_zero_count_rejected(self):
        with pytest.raises(PlanError, match="count must be"):
            FaultSpec(op="journal.write", index=0, kind="enospc", count=0)

    def test_hits_window(self):
        spec = FaultSpec(op="artifact.fsync", index=3, kind="eio", count=2)
        assert [spec.hits(i) for i in range(6)] == [
            False, False, False, True, True, False,
        ]


class TestFaultPlan:
    def test_json_roundtrip(self):
        restored = FaultPlan.from_json(PLAN.to_json())
        assert restored == PLAN

    def test_unknown_version_rejected(self):
        payload = PLAN.to_payload()
        payload["plan_version"] = 99
        with pytest.raises(PlanError, match="version"):
            FaultPlan.from_payload(payload)

    def test_bad_spec_payload_rejected(self):
        with pytest.raises(PlanError, match="bad fault spec"):
            FaultSpec.from_payload({"op": "journal.write"})

    def test_load_plan_inline_json(self):
        assert load_plan(PLAN.to_json()) == PLAN

    def test_load_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(PLAN.to_json())
        assert load_plan(path) == PLAN

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(PlanError, match="neither inline JSON nor a file"):
            load_plan(tmp_path / "nope.json")

    def test_not_json_rejected(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            load_plan("{broken")


class TestRandomPlan:
    def test_deterministic_per_seed(self):
        assert random_plan(11) == random_plan(11)
        assert random_plan(11) != random_plan(12)

    def test_specs_validate_and_bound(self):
        for seed in range(30):
            plan = random_plan(seed, ops=3)
            assert 1 <= len(plan.specs) <= 3
            for spec in plan.specs:
                assert spec.index < DEFAULT_HORIZON
                if spec.kind == "torn_write":
                    assert spec.arg >= 1

    def test_at_most_one_process_fault(self):
        # Two pool casualties can exhaust the single retry budget by
        # construction; the generator must never stack them.
        for seed in range(60):
            plan = random_plan(seed, ops=10)
            proc = [
                s for s in plan.specs
                if s.op in ("worker.task", "runner.harvest")
            ]
            assert len(proc) <= 1

    def test_one_fault_per_site(self):
        for seed in range(30):
            plan = random_plan(seed, ops=10)
            ops = [spec.op for spec in plan.specs]
            assert len(ops) == len(set(ops))

    def test_kind_restriction(self):
        plan = random_plan(5, ops=4, kinds=("enospc",))
        assert plan.specs
        assert all(spec.kind == "enospc" for spec in plan.specs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown fault kind"):
            random_plan(5, kinds=("power_loss",))

    def test_no_usable_sites_rejected(self):
        with pytest.raises(PlanError, match="no usable injection sites"):
            random_plan(5, kinds=())

    def test_every_spec_hits_one_occurrence(self):
        for seed in range(10):
            plan = random_plan(seed, ops=10)
            assert all(spec.count == 1 for spec in plan.specs)


class TestContext:
    def test_fire_keys_on_occurrence(self):
        context = EnvFaultContext(PLAN)
        assert context.fire("journal.write") is None
        assert context.fire("journal.write") is None
        spec = context.fire("journal.write")
        assert spec is not None and spec.kind == "enospc"
        assert context.fire("journal.write") is None
        assert [f.occurrence for f in context.fired] == [2]

    def test_count_spans_consecutive_occurrences(self):
        context = EnvFaultContext(PLAN)
        hits = [context.fire("artifact.fsync") is not None for _ in range(4)]
        assert hits == [True, True, False, False]

    def test_ops_counted_independently(self):
        context = EnvFaultContext(PLAN)
        for _ in range(3):
            context.fire("artifact.write")
        assert context.fire("journal.write") is None  # occurrence 0

    def test_claim_once_without_scratch_always_wins(self):
        context = EnvFaultContext(PLAN)
        assert context.claim_once("worker.task", 5)
        assert context.claim_once("worker.task", 5)

    def test_claim_once_with_scratch_single_winner(self, tmp_path):
        # Two contexts model two forked workers with inherited counters.
        first = EnvFaultContext(PLAN, scratch=str(tmp_path))
        second = EnvFaultContext(PLAN, scratch=str(tmp_path))
        assert first.claim_once("worker.task", 5)
        assert not second.claim_once("worker.task", 5)
        assert not first.claim_once("worker.task", 5)
        assert second.claim_once("worker.task", 6)  # distinct occurrence

    def test_injected_restores_previous(self):
        assert context_mod.CURRENT is None
        with injected(PLAN) as context:
            assert context_mod.CURRENT is context
        assert context_mod.CURRENT is None

    def test_due_counts_only_against_an_armed_context(self):
        # Disarmed, an occurrence is counted nowhere: a context armed
        # afterwards still sees its occurrence 0 first.
        assert context_mod.CURRENT is None
        assert context_mod.due("journal.write") is None
        with injected(PLAN) as context:
            due = [context_mod.due("journal.write") for _ in range(3)]
        assert due[:2] == [None, None] and due[2].kind == "enospc"
        assert [f.occurrence for f in context.fired] == [2]
        assert context_mod.due("journal.write") is None


class TestEnvGate:
    @pytest.fixture(autouse=True)
    def clean_context(self, monkeypatch):
        # Restored after each test, whatever the gate armed.
        monkeypatch.setattr(context_mod, "CURRENT", None)

    def test_unset_or_zero_is_off(self, monkeypatch):
        for value in ("", "0", "  "):
            monkeypatch.setenv(context_mod.ENVFAULT_ENV, value)
            context_mod._install_from_env()
            assert context_mod.CURRENT is None

    def test_file_plan_installs_with_scratch(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(PLAN.to_json())
        monkeypatch.setenv(context_mod.ENVFAULT_ENV, str(path))
        context_mod._install_from_env()
        assert context_mod.CURRENT is not None
        assert context_mod.CURRENT.plan == PLAN
        # One-shot markers land next to the plan file, shared by every
        # process the env var reaches.
        assert context_mod.CURRENT._scratch == str(tmp_path)

    def test_inline_plan_installs_without_scratch(self, monkeypatch):
        monkeypatch.setenv(context_mod.ENVFAULT_ENV, PLAN.to_json())
        context_mod._install_from_env()
        assert context_mod.CURRENT is not None
        assert context_mod.CURRENT._scratch is None

    def test_misconfiguration_is_loud(self, monkeypatch, tmp_path):
        monkeypatch.setenv(context_mod.ENVFAULT_ENV, str(tmp_path / "no.json"))
        with pytest.raises(RuntimeError, match="set but unusable"):
            context_mod._install_from_env()


def _armed(op, kind, index=0, arg=0):
    """Arm a one-fault plan for a ``with`` block; yields its context."""
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(op=op, index=index, kind=kind, arg=arg),)
    )
    return injected(plan)


class TestFsFault:
    def test_disarmed_shims_run_the_plain_sequence(self, tmp_path):
        assert context_mod.CURRENT is None
        src, dst = tmp_path / "tmp", tmp_path / "final"
        with open(src, "w") as handle:
            fsfault.write(handle, "hello\n", "artifact.write")
            handle.flush()
            fsfault.fsync(handle.fileno(), "artifact.fsync")
        fsfault.replace(str(src), str(dst), "artifact.rename")
        assert dst.read_text() == "hello\n" and not src.exists()

    def test_clean_occurrence_writes_through(self, tmp_path):
        path = tmp_path / "out.txt"
        with _armed("journal.write", "enospc", index=1) as context:
            with open(path, "w") as handle:
                fsfault.write(handle, "hello\n", "journal.write")
        assert path.read_text() == "hello\n"
        assert context.fired == []

    def test_enospc_strikes_before_bytes_move(self, tmp_path):
        path = tmp_path / "out.txt"
        with _armed("journal.write", "enospc"), open(path, "w") as handle:
            with pytest.raises(OSError, match="no space left"):
                fsfault.write(handle, "hello\n", "journal.write")
        assert path.read_text() == ""

    def test_torn_write_leaves_exact_prefix(self, tmp_path):
        path = tmp_path / "out.txt"
        with _armed("journal.write", "torn_write", arg=3):
            with open(path, "w") as handle:
                with pytest.raises(OSError, match="torn after 3"):
                    fsfault.write(handle, "hello\n", "journal.write")
        assert path.read_text() == "hel"

    def test_eintr_is_interrupted_error(self, tmp_path):
        with _armed("journal.write", "eintr"):
            with open(tmp_path / "out.txt", "w") as handle:
                with pytest.raises(InterruptedError):
                    fsfault.write(handle, "x", "journal.write")

    def test_fsync_drop_lies_quietly(self, tmp_path):
        with _armed("journal.fsync", "fsync_drop") as context:
            with open(tmp_path / "out.txt", "w") as handle:
                fsfault.fsync(handle.fileno(), "journal.fsync")
        assert [f.spec.kind for f in context.fired] == ["fsync_drop"]

    def test_rename_fail_leaves_target_unpublished(self, tmp_path):
        src, dst = tmp_path / "tmp", tmp_path / "final"
        src.write_text("data")
        with _armed("artifact.rename", "rename_fail"):
            with pytest.raises(OSError, match="rename"):
                fsfault.replace(str(src), str(dst), "artifact.rename")
        assert src.exists() and not dst.exists()

    def test_rename_clean_occurrence_publishes(self, tmp_path):
        src, dst = tmp_path / "tmp", tmp_path / "final"
        src.write_text("data")
        with _armed("artifact.rename", "rename_fail", index=1):
            fsfault.replace(str(src), str(dst), "artifact.rename")
        assert dst.read_text() == "data"


class TestChaosReproducers:
    def _violation(self):
        from repro.envfault.check import Violation

        return Violation(
            state="soak_seed7", invariant="artifact-valid", detail="boom"
        )

    def test_save_load_roundtrip(self, tmp_path):
        from repro.envfault.check import (
            default_spec,
            load_chaos_reproducer,
            save_chaos_reproducer,
        )

        path = tmp_path / "chaos_7.json"
        save_chaos_reproducer(path, PLAN, default_spec(), self._violation())
        plan, spec, recorded = load_chaos_reproducer(path)
        assert plan == PLAN
        assert spec == default_spec()
        assert recorded["invariant"] == "artifact-valid"

    def test_unknown_version_rejected(self, tmp_path):
        from repro.durability import write_artifact
        from repro.envfault.check import (
            default_spec,
            load_chaos_reproducer,
            save_chaos_reproducer,
        )

        path = tmp_path / "chaos_7.json"
        save_chaos_reproducer(path, PLAN, default_spec(), self._violation())
        payload = json.loads(path.read_text())
        payload["version"] = 99
        write_artifact(path, json.dumps(payload))
        with pytest.raises(PlanError, match="reproducer version"):
            load_chaos_reproducer(path)

    def test_tampered_reproducer_refused(self, tmp_path):
        from repro.durability import ArtifactError
        from repro.envfault.check import (
            default_spec,
            load_chaos_reproducer,
            save_chaos_reproducer,
        )

        path = tmp_path / "chaos_7.json"
        save_chaos_reproducer(path, PLAN, default_spec(), self._violation())
        path.write_text(path.read_text().replace("enospc", "eio"))
        with pytest.raises(ArtifactError):
            load_chaos_reproducer(path)


class TestSoakKinds:
    """A soak draws from the kinds it is given, every kind by default."""

    def test_default_kinds_are_filesystem_and_process(self):
        from repro.envfault import ALL_KINDS, FS_KINDS, PROC_KINDS
        from repro.envfault.check import soak_kinds

        assert soak_kinds() == ALL_KINDS == FS_KINDS + PROC_KINDS
        assert soak_kinds(["enospc"]) == ("enospc",)

    def test_soak_plans_hold_no_shm_faults(self, tmp_path, monkeypatch):
        # A soak's fault campaigns publish no traces, so a shared-memory
        # fault could never fire; the plane has no such site to draw.
        from types import SimpleNamespace

        from repro.envfault import check as check_mod
        from repro.envfault.plan import ALL_OPS

        plans = []

        def record(workdir, spec, plan, baseline, jobs):
            plans.append(plan)
            return None, 0

        monkeypatch.setattr(check_mod, "_soak_iteration", record)
        monkeypatch.setattr(
            check_mod,
            "run_campaign",
            lambda *args, **kwargs: SimpleNamespace(to_json=lambda: "{}"),
        )
        report = check_mod.soak_check(
            tmp_path, seed=2023, ops=3, minutes=1.0, max_iterations=40
        )
        assert report.states == len(plans) == 40
        drawn = [spec for plan in plans for spec in plan.specs]
        assert drawn
        assert not [op for op in ALL_OPS if op.startswith("shm.")]
        assert not [spec for spec in drawn if spec.op.startswith("shm.")]

    @pytest.mark.parametrize(
        "kind", ["attach_enoent", "segment_vanish", "digest_mismatch"]
    )
    def test_shm_kind_rejected_before_any_run(self, tmp_path, kind):
        # The retired shared-memory kinds are unknown kinds now.
        from repro.envfault.check import soak_check

        with pytest.raises(PlanError, match=f"unknown fault kind\\(s\\) {kind}"):
            soak_check(tmp_path / "work", kinds=("enospc", kind))
        assert not (tmp_path / "work").exists()


class TestShrinkPlan:
    def test_shrinks_to_single_culprit_at_index_zero(self, tmp_path, monkeypatch):
        from repro.envfault import check as check_mod

        culprit = FaultSpec(op="journal.write", index=9, kind="enospc")
        noise = (
            FaultSpec(op="artifact.fsync", index=4, kind="fsync_drop"),
            FaultSpec(op="artifact.rename", index=1, kind="rename_fail"),
        )
        plan = FaultPlan(seed=3, specs=(noise[0], culprit, noise[1]))
        reference = check_mod.Violation(
            state="soak_seed3", invariant="resume-identical", detail="diverged"
        )

        def fake_iteration(workdir, spec, candidate, baseline, jobs):
            hit = any(
                s.op == "journal.write" and s.kind == "enospc"
                for s in candidate.specs
            )
            return (reference if hit else None), len(candidate.specs)

        monkeypatch.setattr(check_mod, "_soak_iteration", fake_iteration)
        best, violation = check_mod._shrink_plan(
            tmp_path, check_mod.default_spec(), plan, "baseline", 1, reference
        )
        assert violation is reference
        assert len(best.specs) == 1
        assert best.specs[0].op == "journal.write"
        assert best.specs[0].index == 0  # halved all the way down

    def test_shrink_keeps_original_when_nothing_smaller_violates(
        self, tmp_path, monkeypatch
    ):
        from repro.envfault import check as check_mod

        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(op="journal.write", index=0, kind="enospc"),
                FaultSpec(op="artifact.fsync", index=0, kind="fsync_drop"),
            ),
        )
        reference = check_mod.Violation(
            state="s", invariant="artifact-valid", detail="d"
        )

        def only_full_plan_violates(workdir, spec, candidate, baseline, jobs):
            hit = len(candidate.specs) == len(plan.specs)
            return (reference if hit else None), 0

        monkeypatch.setattr(
            check_mod, "_soak_iteration", only_full_plan_violates
        )
        best, violation = check_mod._shrink_plan(
            tmp_path, check_mod.default_spec(), plan, "baseline", 1, reference
        )
        assert best == plan
        assert violation is reference
