"""Crash-consistency checker: prove the PR 5 invariants under OS faults.

Two modes, both built on the deterministic fault campaign (cheap, fully
journaled, byte-stable reports):

**Systematic** (:func:`systematic_check`) — record a baseline campaign,
then enumerate crash states *exhaustively*: every complete-record
prefix of the journal, torn copies of each prefix (the next record cut
at several byte offsets), plus every injected artifact-write fault kind
at every filesystem injection site.  Each state is replayed with
``--resume`` semantics and graded against the invariants:

1. **byte-identical output** — a resumed campaign's JSON report equals
   the uninterrupted baseline, byte for byte;
2. **valid-or-quarantined artifacts** — after any artifact-write fault,
   the target either verifies ``OK``/``MISSING`` or can be quarantined
   (never a silently consumable ``MISMATCH``);
3. **exit taxonomy** — a busted journal *header* maps to the fatal
   class (:class:`~repro.durability.JournalError`, CLI exit 2), a torn
   *tail* resumes cleanly, mid-file corruption is
   :class:`~repro.durability.StaleJournalError` (exit 2), and an ENOSPC
   mid-append converts to :class:`~repro.durability.RunInterrupted`
   (CLI exit 75, resumable);
4. **zero /dev/shm residue** — after a worker-SIGKILL storm against a
   parallel run, the owner's cleanup leaves no ``secpb_shm_<pid>_*``
   segments behind.

**Soak** (:func:`soak_check`) — seeded random fault plans
(:func:`~repro.envfault.plan.random_plan`) thrown at full runs for a
time budget; any invariant violation is greedily shrunk (the
:mod:`repro.fault.minimize` discipline: bounded probes, keep a shrink
only if the violation still reproduces) and saved as a versioned JSON
reproducer that :func:`replay_reproducer` re-runs exactly.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..durability import (
    ArtifactStatus,
    JournalError,
    RunInterrupted,
    StaleJournalError,
    quarantine_artifact,
    read_verified,
    verify_artifact,
    write_artifact,
)
from ..fault.campaign import CampaignSpec, run_campaign
from ..fault.minimize import _MAX_SHRINK_ATTEMPTS
from ..runtime.pool import shutdown_shared_pool
from ..runtime.shm import segment_prefix
from .context import injected
from .plan import (
    ALL_KINDS,
    FaultPlan,
    FaultSpec,
    PlanError,
    random_plan,
)

logger = logging.getLogger(__name__)

CHAOS_REPRODUCER_VERSION = 1
"""Chaos-reproducer file-format version (plan + campaign shape)."""

#: Byte offsets at which the systematic sweep tears the next record.
TEAR_OFFSETS = (1, 9)

#: Artifact fault kinds the systematic sweep injects per site.
_ARTIFACT_FAULTS = (
    ("artifact.write", "torn_write"),
    ("artifact.write", "enospc"),
    ("artifact.write", "eio"),
    ("artifact.write", "eintr"),
    ("artifact.fsync", "eio"),
    ("artifact.fsync", "fsync_drop"),
    ("artifact.rename", "rename_fail"),
    ("artifact.dir_fsync", "fsync_drop"),
)


def default_spec() -> CampaignSpec:
    """The small, fast campaign shape both checker modes exercise.

    18 cases across the two spectrum extremes — enough journal records
    for a meaningful prefix sweep, cheap enough to replay ~100 times.
    """
    return CampaignSpec(
        schemes=("cobcm", "nogap"),
        crash_points=2,
        gapped_points=2,
        num_stores=30,
        brownout_fracs=(0.5,),
        tamper_targets=("counter",),
    )


@dataclass(frozen=True)
class Violation:
    """One crash state (or soak iteration) that broke an invariant."""

    state: str
    invariant: str
    detail: str


@dataclass
class CheckReport:
    """Outcome of a systematic sweep or a chaos soak."""

    mode: str
    states: int = 0
    violations: List[Violation] = field(default_factory=list)
    faults_fired: int = 0
    shm_residue: List[str] = field(default_factory=list)
    reproducers: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.shm_residue

    def to_payload(self) -> Dict[str, Any]:
        return {
            "faults_fired": self.faults_fired,
            "mode": self.mode,
            "ok": self.ok,
            "reproducers": list(self.reproducers),
            "shm_residue": list(self.shm_residue),
            "states": self.states,
            "violations": [
                {
                    "detail": v.detail,
                    "invariant": v.invariant,
                    "state": v.state,
                }
                for v in self.violations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [
            f"envfault {self.mode}: {self.states} state(s) checked, "
            f"{self.faults_fired} fault(s) fired, "
            f"{len(self.violations)} violation(s)"
        ]
        for violation in self.violations:
            lines.append("")
            lines.append(f"VIOLATION [{violation.invariant}] {violation.state}")
            lines.append(f"  {violation.detail}")
        if self.shm_residue:
            lines.append("")
            lines.append(
                f"SHM RESIDUE: {len(self.shm_residue)} leaked segment(s): "
                + ", ".join(self.shm_residue)
            )
        for path in self.reproducers:
            lines.append("")
            lines.append(f"reproducer saved: {path}")
        if self.ok:
            lines.append("all invariants held")
        return "\n".join(lines)


def _scan_shm_residue() -> List[str]:
    """Leaked ``/dev/shm`` segment names owned by *this* process."""
    root = Path("/dev/shm")
    if not root.is_dir():  # non-Linux: nothing to audit
        return []
    return sorted(p.name for p in root.glob(segment_prefix() + "*"))


def _journal_records(journal_path: Path) -> List[bytes]:
    """The journal's complete lines (header included), newline-stripped."""
    raw = journal_path.read_bytes()
    complete = raw[: raw.rfind(b"\n") + 1]
    return complete.split(b"\n")[:-1]


def _write_state(
    state_path: Path, records: Sequence[bytes], torn: bytes = b""
) -> None:
    body = b"".join(record + b"\n" for record in records) + torn
    state_path.write_bytes(body)


def _resume_state(
    spec: CampaignSpec, state_path: Path, jobs: int = 1
) -> str:
    """Replay ``--resume`` from one crash state; returns the report JSON."""
    report = run_campaign(
        spec, jobs=jobs, minimize=False, journal=state_path, resume=True
    )
    return report.to_json()


def _check_artifact_fault(
    workdir: Path,
    site: str,
    kind: str,
    payload: bytes,
    violations: List[Violation],
) -> int:
    """Inject one artifact fault and grade the valid-or-quarantined rule.

    Returns the number of faults that actually fired (so a spec that
    never triggers is loud in the state count, not silently vacuous).
    """
    state = f"artifact:{site}:{kind}"
    target = workdir / f"{site.replace('.', '_')}_{kind}.json"
    # Seed the destination with a known-good artifact so a failed write
    # must preserve *verified old* content, the strongest form of rule 2.
    old = b'{"generation": "old"}\n'
    write_artifact(target, old)
    plan = FaultPlan(
        seed=0, specs=(FaultSpec(op=site, index=0, kind=kind, arg=4),)
    )
    raised: Optional[BaseException] = None
    with injected(plan) as context:
        try:
            write_artifact(target, payload)
        except OSError as exc:
            raised = exc
    fired = len(context.fired)
    status = verify_artifact(target)
    if status is ArtifactStatus.OK:
        content = read_verified(target)
        if raised is not None and content not in (old, payload):
            violations.append(
                Violation(
                    state,
                    "valid-or-quarantined",
                    f"artifact verifies OK but holds neither the old nor "
                    f"the new generation after {raised}",
                )
            )
        return fired
    if status is ArtifactStatus.MISSING:
        return fired
    # UNMANIFESTED / MISMATCH: the artifact must be quarantinable so the
    # path is freed for regeneration and the evidence survives.
    try:
        quarantine_artifact(target)
    except OSError as exc:
        violations.append(
            Violation(
                state,
                "valid-or-quarantined",
                f"artifact graded {status.value} but quarantine failed: {exc}",
            )
        )
        return fired
    if verify_artifact(target) is not ArtifactStatus.MISSING:
        violations.append(
            Violation(
                state,
                "valid-or-quarantined",
                f"artifact graded {status.value} and quarantine did not "
                f"free the path",
            )
        )
    return fired


def _check_enospc_resumable(
    workdir: Path,
    spec: CampaignSpec,
    baseline: str,
    violations: List[Violation],
) -> int:
    """ENOSPC mid-journal-append must convert to RunInterrupted (exit 75)
    and a faultless ``--resume`` must then be byte-identical."""
    state = "journal:enospc-mid-append"
    journal_path = workdir / "enospc.jsonl"
    plan = FaultPlan(
        seed=0,
        specs=(
            FaultSpec(op="journal.write", index=4, kind="torn_write", arg=7),
        ),
    )
    fired = 0
    with injected(plan) as context:
        try:
            run_campaign(spec, jobs=1, minimize=False, journal=journal_path)
        except RunInterrupted:
            pass  # the resumable class — exactly what the taxonomy wants
        except Exception as exc:  # noqa: BLE001 - graded, not propagated
            violations.append(
                Violation(
                    state,
                    "exit-taxonomy",
                    f"expected RunInterrupted (exit 75), got "
                    f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            violations.append(
                Violation(
                    state,
                    "exit-taxonomy",
                    "journal append fault did not interrupt the run",
                )
            )
        fired = len(context.fired)
    resumed = _resume_state(spec, journal_path)
    if resumed != baseline:
        violations.append(
            Violation(
                state,
                "byte-identical-resume",
                "resume after ENOSPC diverged from the baseline report",
            )
        )
    return fired


def _check_sigkill_storm(
    workdir: Path,
    spec: CampaignSpec,
    baseline: str,
    jobs: int,
    violations: List[Violation],
) -> int:
    """A worker SIGKILL mid-campaign must be absorbed (pool recycled,
    retry succeeds), keep the report byte-identical, and leak nothing."""
    state = "pool:worker-sigkill"
    journal_path = workdir / "sigkill.jsonl"
    plan = FaultPlan(
        seed=0,
        specs=(FaultSpec(op="worker.task", index=2, kind="worker_sigkill"),),
    )
    # Workers inherit the armed context at fork; a pool forked *before*
    # arming would dodge every worker-side fault, so force a fresh fork.
    # The scratch directory makes the kill one-shot across processes.
    shutdown_shared_pool(wait=False)
    scratch = tempfile.mkdtemp(dir=str(workdir), prefix="once_")
    fired = 0
    try:
        with injected(plan, scratch=scratch) as context:
            report = run_campaign(
                spec, jobs=jobs, minimize=False, journal=journal_path
            )
            fired = len(context.fired)
        if report.to_json() != baseline:
            violations.append(
                Violation(
                    state,
                    "byte-identical-resume",
                    "report after an absorbed worker SIGKILL diverged "
                    "from the baseline",
                )
            )
    except Exception as exc:  # noqa: BLE001 - graded, not propagated
        violations.append(
            Violation(
                state,
                "fault-absorbed",
                f"worker SIGKILL was not absorbed: "
                f"{type(exc).__name__}: {exc}",
            )
        )
    finally:
        # Tear down the armed-at-fork pool so later runs are faultless.
        shutdown_shared_pool(wait=False)
        shutil.rmtree(scratch, ignore_errors=True)
    return fired


def systematic_check(
    workdir: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    jobs: int = 2,
    tear_offsets: Sequence[int] = TEAR_OFFSETS,
) -> CheckReport:
    """Enumerate crash states for one campaign and grade every invariant.

    ``jobs`` drives the *recorded* runs (baseline and storm); resume
    replays run serially — byte-identity across worker counts is exactly
    the guarantee under test.
    """
    spec = spec if spec is not None else default_spec()
    workdir = Path(workdir)
    os.makedirs(str(workdir), exist_ok=True)
    report = CheckReport(mode="systematic")

    baseline_journal = workdir / "baseline.jsonl"
    baseline = run_campaign(
        spec, jobs=jobs, minimize=False, journal=baseline_journal
    ).to_json()
    records = _journal_records(baseline_journal)
    state_path = workdir / "state.jsonl"

    # --- every complete-record prefix, plus torn variants of each ------
    for keep in range(len(records) + 1):
        torn_variants: List[bytes] = [b""]
        if keep < len(records):
            nxt = records[keep]
            torn_variants += [
                nxt[: min(offset, max(len(nxt) - 1, 0))]
                for offset in tear_offsets
            ]
        for torn in torn_variants:
            state = f"journal:prefix={keep}:torn={len(torn)}"
            report.states += 1
            _write_state(state_path, records[:keep], torn)
            try:
                resumed = _resume_state(spec, state_path)
            except JournalError:
                # The fatal class (CLI exit 2).  Correct only when the
                # *header* never made it to disk intact.
                if keep >= 1:
                    report.violations.append(
                        Violation(
                            state,
                            "exit-taxonomy",
                            "journal with a valid header graded fatal "
                            "instead of resuming",
                        )
                    )
                continue
            if keep < 1:
                report.violations.append(
                    Violation(
                        state,
                        "exit-taxonomy",
                        "journal with no valid header resumed instead of "
                        "failing loud",
                    )
                )
            elif resumed != baseline:
                report.violations.append(
                    Violation(
                        state,
                        "byte-identical-resume",
                        "resumed report diverged from the baseline",
                    )
                )

    # --- mid-file corruption must be fatal, never silently truncated --
    if len(records) >= 3:
        report.states += 1
        damaged = list(records)
        damaged[1] = damaged[1][: max(len(damaged[1]) // 2, 1)]
        _write_state(state_path, damaged)
        try:
            _resume_state(spec, state_path)
        except StaleJournalError:
            pass  # the required grade
        except JournalError as exc:
            report.violations.append(
                Violation(
                    "journal:mid-file-corruption",
                    "exit-taxonomy",
                    f"expected StaleJournalError, got "
                    f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            report.violations.append(
                Violation(
                    "journal:mid-file-corruption",
                    "exit-taxonomy",
                    "a torn record followed by valid records resumed "
                    "instead of failing loud",
                )
            )

    # --- every artifact fault kind at every site -----------------------
    payload = baseline.encode("utf-8")
    for site, kind in _ARTIFACT_FAULTS:
        report.states += 1
        report.faults_fired += _check_artifact_fault(
            workdir, site, kind, payload, report.violations
        )

    # --- ENOSPC mid-append and the SIGKILL storm ------------------------
    report.states += 1
    report.faults_fired += _check_enospc_resumable(
        workdir, spec, baseline, report.violations
    )
    report.states += 1
    report.faults_fired += _check_sigkill_storm(
        workdir, spec, baseline, jobs, report.violations
    )

    report.shm_residue = _scan_shm_residue()
    return report


# --- chaos soak ------------------------------------------------------------


def _soak_iteration(
    workdir: Path,
    spec: CampaignSpec,
    plan: FaultPlan,
    baseline: str,
    jobs: int,
) -> Tuple[Optional[Violation], int]:
    """Run one faulted campaign + faultless recovery; grade the invariants.

    Returns ``(violation, faults_fired)`` — ``violation`` is ``None``
    when every invariant held.
    """
    journal_path = workdir / "soak.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    artifact_path = workdir / "soak_report.json"
    state = f"soak:seed={plan.seed}"
    # Fresh pool so workers inherit the armed context (and a fresh pool
    # afterwards so the recovery run is faultless); the scratch dir
    # makes worker kills one-shot across processes and retry rounds.
    shutdown_shared_pool(wait=False)
    scratch = tempfile.mkdtemp(dir=str(workdir), prefix="once_")
    outcome = "completed"
    fired = 0
    try:
        with injected(plan, scratch=scratch) as context:
            report = run_campaign(
                spec, jobs=jobs, minimize=False, journal=journal_path
            )
            try:
                # Exercise the artifact path under the same plan (the
                # campaign itself only appends to the journal).
                write_artifact(artifact_path, report.to_json())
            except OSError:
                pass  # graded below: valid-or-quarantined
            fired = len(context.fired)
    except (RunInterrupted, OSError) as exc:
        # The resumable class: the run checkpointed (or died before the
        # journal header existed) and the operator frees the resource.
        outcome = f"interrupted: {type(exc).__name__}"
        fired = len(context.fired)
    except JournalError as exc:
        outcome = f"fatal: {type(exc).__name__}"
        fired = len(context.fired)
    except Exception as exc:  # noqa: BLE001 - graded below
        return (
            Violation(
                state,
                "fault-absorbed",
                f"unexpected escape {type(exc).__name__}: {exc} "
                f"(outcome taxonomy allows only resumable/fatal classes)",
            ),
            len(context.fired),
        )
    finally:
        shutdown_shared_pool(wait=False)
        shutil.rmtree(scratch, ignore_errors=True)
    status = verify_artifact(artifact_path)
    if status not in (ArtifactStatus.OK, ArtifactStatus.MISSING):
        try:
            quarantine_artifact(artifact_path)
        except OSError as exc:
            return (
                Violation(
                    state,
                    "valid-or-quarantined",
                    f"report artifact graded {status.value} and "
                    f"quarantine failed: {exc}",
                ),
                fired,
            )
    if outcome == "completed" and report.to_json() != baseline:
        return (
            Violation(
                state,
                "byte-identical-resume",
                "faulted-but-completed report diverged from baseline",
            ),
            fired,
        )
    # Faultless recovery: resume when the journal survived with a valid
    # header, start fresh when it did not (the documented exit-2 drill).
    try:
        recovered = _resume_state(spec, journal_path, jobs=1)
    except (JournalError, OSError):
        recovered = run_campaign(spec, jobs=1, minimize=False).to_json()
    if recovered != baseline:
        return (
            Violation(
                state,
                "byte-identical-resume",
                f"recovery after faulted run ({outcome}) diverged from "
                f"the baseline report",
            ),
            fired,
        )
    residue = _scan_shm_residue()
    if residue:
        return (
            Violation(
                state,
                "shm-residue",
                f"leaked segment(s) after iteration: {', '.join(residue)}",
            ),
            fired,
        )
    return None, fired


def _shrink_plan(
    workdir: Path,
    spec: CampaignSpec,
    plan: FaultPlan,
    baseline: str,
    jobs: int,
    reference: Violation,
) -> Tuple[FaultPlan, Violation]:
    """Greedily shrink a violating plan (the ``minimize_case`` discipline).

    Bounded probes; a shrink step is kept only when the *same invariant*
    still breaks.  Shrinks try: dropping whole specs, then halving each
    survivor's occurrence index.
    """
    best, best_violation = plan, reference
    attempts = 0

    def still_violates(candidate: FaultPlan) -> Optional[Violation]:
        violation, _ = _soak_iteration(
            workdir, spec, candidate, baseline, jobs
        )
        if violation is not None and violation.invariant == reference.invariant:
            return violation
        return None

    def try_shrink(candidate: FaultPlan) -> bool:
        nonlocal best, best_violation, attempts
        if attempts >= _MAX_SHRINK_ATTEMPTS:
            return False
        attempts += 1
        violation = still_violates(candidate)
        if violation is None:
            return False
        best, best_violation = candidate, violation
        return True

    # Drop specs one at a time (smallest plan that still violates).
    index = 0
    while index < len(best.specs) and len(best.specs) > 1:
        specs = best.specs[:index] + best.specs[index + 1:]
        if not try_shrink(dataclasses.replace(best, specs=specs)):
            index += 1
    # Pull each surviving fault earlier (halving its occurrence index).
    for index in range(len(best.specs)):
        while best.specs[index].index > 0:
            spec_list = list(best.specs)
            spec_list[index] = dataclasses.replace(
                spec_list[index], index=spec_list[index].index // 2
            )
            if not try_shrink(
                dataclasses.replace(best, specs=tuple(spec_list))
            ):
                break
    return best, best_violation


def save_chaos_reproducer(
    path: Union[str, Path],
    plan: FaultPlan,
    spec: CampaignSpec,
    violation: Violation,
) -> Path:
    """Persist a violating plan as a versioned, replayable artifact."""
    payload = {
        "kind": "envfault-chaos",
        "plan": plan.to_payload(),
        "spec": dataclasses.asdict(spec),
        "version": CHAOS_REPRODUCER_VERSION,
        "violation": {
            "detail": violation.detail,
            "invariant": violation.invariant,
            "state": violation.state,
        },
    }
    return write_artifact(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def load_chaos_reproducer(
    path: Union[str, Path],
) -> Tuple[FaultPlan, CampaignSpec, Dict[str, Any]]:
    """Load a chaos reproducer; verifies the artifact manifest first."""
    payload = json.loads(read_verified(path).decode("utf-8"))
    version = payload.get("version")
    if version != CHAOS_REPRODUCER_VERSION:
        raise PlanError(
            f"unsupported chaos-reproducer version {version!r} "
            f"(this build reads version {CHAOS_REPRODUCER_VERSION})"
        )
    plan = FaultPlan.from_payload(payload["plan"])
    spec_fields = payload.get("spec", {})
    for key in ("schemes", "brownout_fracs", "tamper_targets"):
        if key in spec_fields:
            spec_fields[key] = tuple(spec_fields[key])
    spec = CampaignSpec(**spec_fields)
    return plan, spec, payload.get("violation", {})


def replay_reproducer(
    path: Union[str, Path], workdir: Union[str, Path], jobs: int = 2
) -> CheckReport:
    """Re-run a saved chaos reproducer's exact iteration."""
    plan, spec, _recorded = load_chaos_reproducer(path)
    workdir = Path(workdir)
    os.makedirs(str(workdir), exist_ok=True)
    baseline = run_campaign(spec, jobs=1, minimize=False).to_json()
    report = CheckReport(mode="replay", states=1)
    violation, fired = _soak_iteration(workdir, spec, plan, baseline, jobs)
    report.faults_fired = fired
    if violation is not None:
        report.violations.append(violation)
    report.shm_residue = _scan_shm_residue()
    return report


def soak_kinds(kinds: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """The kinds a soak draws from: ``kinds``, or every kind.

    Raises:
        PlanError: ``kinds`` is empty or names an unknown kind.
    """
    if kinds is None:
        return ALL_KINDS
    if not kinds:
        raise PlanError("no fault kinds to soak with")
    unknown = [kind for kind in kinds if kind not in ALL_KINDS]
    if unknown:
        raise PlanError(
            f"unknown fault kind(s) {', '.join(unknown)} "
            f"(known: {', '.join(ALL_KINDS)})"
        )
    return tuple(kinds)


def soak_check(
    workdir: Union[str, Path],
    seed: int = 2023,
    ops: int = 3,
    minutes: float = 0.5,
    kinds: Optional[Sequence[str]] = None,
    jobs: int = 2,
    spec: Optional[CampaignSpec] = None,
    max_iterations: Optional[int] = None,
    reproducer_dir: Optional[Union[str, Path]] = None,
) -> CheckReport:
    """Randomized chaos soak: seeded fault plans until the time budget.

    Iteration ``i`` uses ``random_plan(seed + i, ...)``, so a soak is
    replayed exactly by its seed.  The first invariant violation is
    shrunk to a minimal plan and saved as a versioned reproducer under
    ``reproducer_dir`` (default: ``<workdir>/reproducers``); the soak
    then stops — one shrunk, replayable failure beats a pile of raw
    ones.

    The ``minutes`` budget is metered on :func:`time.monotonic`; with
    ``max_iterations`` set and time to spare, ``seed`` alone determines
    the soak.  ``kinds`` defaults to every kind and is checked by
    :func:`soak_kinds` before any run.
    """
    allowed = soak_kinds(kinds)
    spec = spec if spec is not None else default_spec()
    workdir = Path(workdir)
    os.makedirs(str(workdir), exist_ok=True)
    report = CheckReport(mode="soak")
    baseline = run_campaign(spec, jobs=1, minimize=False).to_json()
    deadline = time.monotonic() + minutes * 60.0
    iteration = 0
    while time.monotonic() < deadline:
        if max_iterations is not None and iteration >= max_iterations:
            break
        plan = random_plan(seed + iteration, ops=ops, kinds=allowed)
        violation, fired = _soak_iteration(
            workdir, spec, plan, baseline, jobs
        )
        report.states += 1
        report.faults_fired += fired
        iteration += 1
        if violation is None:
            continue
        logger.warning(
            "soak iteration %d violated %s; shrinking",
            iteration - 1, violation.invariant,
        )
        plan, violation = _shrink_plan(
            workdir, spec, plan, baseline, jobs, violation
        )
        report.violations.append(violation)
        target_dir = Path(
            reproducer_dir
            if reproducer_dir is not None
            else workdir / "reproducers"
        )
        os.makedirs(str(target_dir), exist_ok=True)
        target = target_dir / f"chaos_{plan.seed}.json"
        save_chaos_reproducer(target, plan, spec, violation)
        report.reproducers.append(str(target))
        break
    report.shm_residue = _scan_shm_residue()
    return report
