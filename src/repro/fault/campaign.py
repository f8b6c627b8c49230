"""Campaign construction, execution, and reporting.

A campaign is a seeded sweep of :class:`~repro.fault.cases.FaultCase`
scenarios across every scheme on the design spectrum, both crash kinds,
both app-crash drain policies, the gapped baseline, battery brownouts,
and all five tamper targets.  :func:`build_cases` derives the whole case
list deterministically from a :class:`CampaignSpec`;
:func:`execute_case` runs one case end to end and grades it against the
scheme's guarantee; :func:`run_campaign` fans the cases out on the
hardened parallel runner (:func:`repro.analysis.runner.run_tasks`) with
per-case failure capture, so one crashing case can never take down the
campaign.

Grading contract per case kind:

* ``system`` / ``app`` on a SecPB scheme — recovery must be fully OK
  (every persisted store reproduced, PLP invariants intact); an app
  crash additionally requires the victim's blocks to be individually
  recoverable *before* the rest of the workload resumes.
* ``gapped`` — recovery must FAIL: the Fig. 1(b) baseline's
  recoverability gap must be *visible*, never silently absorbed.
* brownout — the crash report must be PARTIAL with a non-empty
  unpersisted list, and recovery must grade PARTIAL with every failure
  attributable to a declared-lost block (graceful degradation: the
  system knows exactly what it lost).
* tamper — recovery must FAIL with the fault attributed to the right
  component (MAC vs counter vs BMT) over exactly the expected blast
  radius, and every untouched block must still recover cleanly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.runner import JobFailure, run_tasks
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..core.crash import AppCrashPolicy, CrashVerdict, GappedPersistentSystem, SecurePersistentSystem
from ..core.recovery import RecoveryVerdict
from ..core.schemes import SPECTRUM_ORDER, get_scheme
from ..durability import (
    JournalWriter,
    StopToken,
    decode_key,
    open_journal,
)
from ..energy.battery import per_entry_drain_energy_nj
from .cases import (
    CRASH_APP,
    CRASH_GAPPED,
    CRASH_SYSTEM,
    TAMPER_TARGETS,
    CaseResult,
    FaultCase,
    TamperSpec,
    generate_workload,
)
from .inject import inject_tamper

logger = logging.getLogger(__name__)

GAPPED_SCHEME = "gapped"

#: Fresh case completions between progress-heartbeat log records.
HEARTBEAT_EVERY = 25

_POLICIES: Dict[str, AppCrashPolicy] = {
    "drain-all": AppCrashPolicy.DRAIN_ALL,
    "drain-process": AppCrashPolicy.DRAIN_PROCESS,
}


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of one campaign; the case list is a pure function of this.

    The defaults produce 200 cases: ``6 schemes x 8 crash points x
    {system, app/drain-all, app/drain-process}`` = 144 plain crashes,
    ``6 x 5`` tamper targets = 30, ``6 x 2`` brownout fractions = 12,
    and 14 gapped-baseline crashes.
    """

    seed: int = 2023
    schemes: Tuple[str, ...] = tuple(SPECTRUM_ORDER)
    crash_points: int = 8
    gapped_points: int = 14
    num_stores: int = 60
    working_set: int = 48
    num_asids: int = 4
    brownout_fracs: Tuple[float, ...] = (0.0, 0.5)
    tamper_targets: Tuple[str, ...] = TAMPER_TARGETS


def build_cases(spec: CampaignSpec) -> List[FaultCase]:
    """Materialize the deterministic case list for ``spec``."""
    rng = Random(spec.seed)
    shape = dict(
        num_stores=spec.num_stores,
        working_set=spec.working_set,
        num_asids=spec.num_asids,
    )
    cases: List[FaultCase] = []

    def sample_points(count: int) -> List[int]:
        population = range(1, spec.num_stores + 1)
        return sorted(rng.sample(population, min(count, spec.num_stores)))

    for scheme in spec.schemes:
        for index in sample_points(spec.crash_points):
            seed = rng.randrange(2**31)
            victim = rng.randrange(spec.num_asids)
            cases.append(
                FaultCase(
                    case_id=f"{scheme}/system/i{index}",
                    scheme=scheme,
                    crash_kind=CRASH_SYSTEM,
                    seed=seed,
                    crash_index=index,
                    **shape,
                )
            )
            for policy in sorted(_POLICIES):
                cases.append(
                    FaultCase(
                        case_id=f"{scheme}/app-{policy}/i{index}",
                        scheme=scheme,
                        crash_kind=CRASH_APP,
                        policy=policy,
                        seed=seed,
                        crash_index=index,
                        victim_asid=victim,
                        **shape,
                    )
                )

    for scheme in spec.schemes:
        for rank, target in enumerate(spec.tamper_targets):
            index = rng.randrange(spec.num_stores // 2, spec.num_stores) + 1
            cases.append(
                FaultCase(
                    case_id=f"{scheme}/tamper-{target}",
                    scheme=scheme,
                    crash_kind=CRASH_SYSTEM,
                    seed=rng.randrange(2**31),
                    crash_index=min(index, spec.num_stores),
                    tamper=TamperSpec(
                        target=target,
                        bit=rng.randrange(256),
                        # Alternate victims between any persisted block and
                        # the late-step artifacts the battery just wrote.
                        prefer_late=rank % 2 == 0,
                    ),
                    **shape,
                )
            )

    for scheme in spec.schemes:
        for frac in spec.brownout_fracs:
            cases.append(
                FaultCase(
                    case_id=f"{scheme}/brownout-{frac:g}",
                    scheme=scheme,
                    crash_kind=CRASH_SYSTEM,
                    seed=rng.randrange(2**31),
                    crash_index=spec.num_stores,
                    brownout_frac=frac,
                    **shape,
                )
            )

    for index in sample_points(spec.gapped_points):
        cases.append(
            FaultCase(
                case_id=f"gapped/system/i{index}",
                scheme=GAPPED_SCHEME,
                crash_kind=CRASH_GAPPED,
                seed=rng.randrange(2**31),
                crash_index=index,
                **shape,
            )
        )
    return cases


# Case execution ------------------------------------------------------------


def _result(case: FaultCase, passed: bool, expected: str, observed: str, detail: str = "") -> CaseResult:
    return CaseResult(
        case_id=case.case_id,
        scheme=case.scheme,
        crash_kind=case.crash_kind,
        passed=passed,
        expected=expected,
        observed=observed,
        detail=detail,
    )


def _execute_gapped(case: FaultCase) -> CaseResult:
    system = GappedPersistentSystem()
    for addr, payload, _asid in generate_workload(case)[: case.crash_index]:
        system.store(addr, payload)
    system.crash()
    report = system.recover()
    detected = report.verdict is RecoveryVerdict.FAILED and report.failures
    return _result(
        case,
        passed=bool(detected),
        expected="gap-detected",
        observed="gap-detected" if detected else f"verdict={report.verdict.value}",
        detail=f"{len(report.failures)}/{report.blocks_checked} blocks failed",
    )


def _execute_brownout(case: FaultCase, system: SecurePersistentSystem) -> CaseResult:
    occupancy = system.secpb.occupancy
    per_entry = per_entry_drain_energy_nj(system.scheme, system.config)
    budget = case.brownout_frac * occupancy * per_entry
    crash = system.crash(energy_budget_nj=budget)
    report = system.recover()
    lost = set(crash.unpersisted_blocks)
    problems = []
    if crash.verdict is not CrashVerdict.PARTIAL:
        problems.append(f"crash verdict {crash.verdict.value}")
    if not lost:
        problems.append("no unpersisted blocks recorded")
    if crash.energy_spent_nj > budget + 1e-9:
        problems.append("overspent the energy budget")
    if report.verdict is not RecoveryVerdict.PARTIAL:
        problems.append(f"recovery verdict {report.verdict.value}")
    stray = [v.block_addr for v in report.failures if v.block_addr not in lost]
    if stray:
        problems.append(f"failures outside declared losses: {stray[:4]}")
    return _result(
        case,
        passed=not problems,
        expected="partial",
        observed="partial" if not problems else "; ".join(problems),
        detail=(
            f"occupancy {occupancy}, drained {crash.entries_drained}, "
            f"lost {len(lost)} block(s)"
        ),
    )


def _execute_tamper(case: FaultCase, system: SecurePersistentSystem) -> CaseResult:
    late_resident = sorted(e.block_addr for e in system.secpb.entries())
    system.crash()
    injection = inject_tamper(
        system.memory,
        case.tamper,
        # A distinct stream from the workload rng so victim choice is
        # independent of how many draws the generator consumed.
        Random(case.seed ^ 0x5EC9B),
        persisted=system.expected.keys(),
        late_persisted=late_resident,
    )
    report = system.recover()
    expected = f"detect:{injection.expected_status.value}"
    problems = []
    if report.verdict is not RecoveryVerdict.FAILED:
        problems.append(f"verdict {report.verdict.value} (fault undetected)")
    failed = {v.block_addr: v.status for v in report.failures}
    missed = sorted(injection.blast_radius - set(failed))
    stray = sorted(set(failed) - injection.blast_radius)
    wrong = sorted(
        b
        for b, status in failed.items()
        if b in injection.blast_radius and status is not injection.expected_status
    )
    if missed:
        problems.append(f"blast-radius blocks recovered cleanly: {missed[:4]}")
    if stray:
        problems.append(f"collateral failures outside blast radius: {stray[:4]}")
    if wrong:
        problems.append(f"misattributed blocks: {wrong[:4]}")
    return _result(
        case,
        passed=not problems,
        expected=expected,
        observed=expected if not problems else "; ".join(problems),
        detail=injection.describe(),
    )


def _execute_system(case: FaultCase, system: SecurePersistentSystem) -> CaseResult:
    crash = system.crash()
    report = system.recover()
    problems = []
    if crash.verdict is not CrashVerdict.COMPLETE:
        problems.append(f"crash verdict {crash.verdict.value}")
    if not crash.invariants_ok:
        problems.append(f"PLP invariant: {crash.invariant_violation}")
    if report.verdict is not RecoveryVerdict.OK:
        problems.append(report.failure_summary().replace("\n", "; "))
    return _result(
        case,
        passed=not problems,
        expected="recover-ok",
        observed="recover-ok" if not problems else "; ".join(problems),
        detail=f"{report.blocks_checked} blocks checked",
    )


def _execute_app(case: FaultCase, system: SecurePersistentSystem, stores) -> CaseResult:
    victim = case.victim_asid % case.num_asids
    system.app_crash(victim, _POLICIES[case.policy])
    problems = []
    # The dead process's persisted stores must be recoverable NOW, while
    # the machine keeps running and other processes keep their entries.
    victim_blocks = sorted(
        {a for a, _p, asid in stores[: case.crash_index] if asid == victim}
    )
    for block in victim_blocks:
        recovered = system.memory.recover_block(block)
        if not (recovered.ok and recovered.plaintext == system.expected[block]):
            problems.append(
                f"victim block {block:#x} not durable: {recovered.status.value}"
            )
    # The surviving processes resume, then the machine eventually dies.
    for addr, payload, asid in stores[case.crash_index:]:
        system.store(addr, payload, asid=asid)
    system.crash()
    report = system.recover()
    if report.verdict is not RecoveryVerdict.OK:
        problems.append(report.failure_summary().replace("\n", "; "))
    return _result(
        case,
        passed=not problems,
        expected="recover-ok",
        observed="recover-ok" if not problems else "; ".join(problems[:4]),
        detail=(
            f"policy {case.policy}, victim asid {victim} "
            f"({len(victim_blocks)} blocks)"
        ),
    )


def execute_case(case: FaultCase) -> CaseResult:
    """Run one fault case end to end and grade it (module-level: picklable)."""
    if case.crash_kind == CRASH_GAPPED:
        return _execute_gapped(case)
    stores = generate_workload(case)
    system = SecurePersistentSystem(get_scheme(case.scheme))
    for addr, payload, asid in stores[: case.crash_index]:
        system.store(addr, payload, asid=asid)
    if case.crash_kind == CRASH_APP:
        return _execute_app(case, system, stores)
    if case.brownout_frac is not None:
        return _execute_brownout(case, system)
    if case.tamper is not None:
        return _execute_tamper(case, system)
    return _execute_system(case, system)


# Campaign execution and reporting ------------------------------------------

JOURNAL_KIND = "fault-campaign"
"""The journal ``kind`` tag for campaign journals (see repro.durability)."""


def spec_payload(spec: CampaignSpec) -> Dict[str, Any]:
    """The JSON-safe form of a spec that journal fingerprints bind to.

    Any change to the spec changes the fingerprint, so a journal written
    for one campaign shape can never be resumed into another.
    """
    return asdict(spec)


def outcome_to_payload(outcome: Union[CaseResult, JobFailure]) -> Dict[str, Any]:
    """Encode one case outcome as a JSON-safe journal payload."""
    if isinstance(outcome, JobFailure):
        data = asdict(outcome)
        data["key"] = list(data["key"]) if isinstance(data["key"], tuple) else data["key"]
        return {"kind": "job_failure", "data": data}
    return {"kind": "result", "data": asdict(outcome)}


def outcome_from_payload(payload: Dict[str, Any]) -> Union[CaseResult, JobFailure]:
    """Invert :func:`outcome_to_payload` (used when resuming a journal)."""
    kind = payload.get("kind")
    data = dict(payload["data"])
    if kind == "job_failure":
        data["key"] = decode_key(data["key"])
        return JobFailure(**data)
    if kind == "result":
        return CaseResult(**data)
    raise ValueError(f"unknown campaign journal payload kind {kind!r}")


@dataclass
class Reproducer:
    """A failing case shrunk to its minimal form, ready to replay."""

    case_id: str
    minimized: FaultCase
    result: CaseResult
    json: str


@dataclass
class CampaignReport:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    results: List[CaseResult] = field(default_factory=list)
    job_failures: List[JobFailure] = field(default_factory=list)
    reproducers: List[Reproducer] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results) + len(self.job_failures)

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.passed]

    @property
    def all_passed(self) -> bool:
        return not self.failures and not self.job_failures

    def matrix(self) -> Dict[Tuple[str, str], Tuple[int, int]]:
        """(scheme, kind) -> (passed, total) over graded cases."""
        cells: Dict[Tuple[str, str], List[int]] = {}
        for result in self.results:
            kind = result.case_id.split("/")[1].split("-")[0]
            cell = cells.setdefault((result.scheme, kind), [0, 0])
            cell[0] += int(result.passed)
            cell[1] += 1
        return {key: (p, t) for key, (p, t) in sorted(cells.items())}

    def render(self) -> str:
        lines = [
            f"fault campaign: {self.total} cases, "
            f"{len(self.results) - len(self.failures)} passed, "
            f"{len(self.failures)} failed, "
            f"{len(self.job_failures)} job failure(s)",
            "",
            f"{'scheme':<8} {'kind':<10} {'passed':>8}",
        ]
        for (scheme, kind), (passed, total) in self.matrix().items():
            lines.append(f"{scheme:<8} {kind:<10} {passed:>4}/{total}")
        for result in self.failures:
            lines.append("")
            lines.append(f"FAIL {result.case_id}")
            lines.append(f"  expected {result.expected}, got {result.observed}")
            if result.detail:
                lines.append(f"  {result.detail}")
        for failure in self.job_failures:
            lines.append("")
            lines.append(f"JOB FAILURE {failure.key}: {failure.error_type}: {failure.message}")
        for repro in self.reproducers:
            lines.append("")
            lines.append(
                f"minimal reproducer for {repro.case_id}: "
                f"{repro.minimized.num_stores} stores, "
                f"crash at {repro.minimized.crash_index}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "total": self.total,
                "passed": len(self.results) - len(self.failures),
                "failed": [
                    {
                        "case_id": r.case_id,
                        "expected": r.expected,
                        "observed": r.observed,
                        "detail": r.detail,
                    }
                    for r in self.failures
                ],
                "job_failures": [
                    {
                        "key": f.key,
                        "error_type": f.error_type,
                        "message": f.message,
                        "timed_out": f.timed_out,
                    }
                    for f in self.job_failures
                ],
                "reproducers": [json.loads(r.json) for r in self.reproducers],
            },
            indent=2,
            sort_keys=True,
        )


def run_campaign(
    spec: Optional[CampaignSpec] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    minimize: bool = True,
    max_reproducers: int = 5,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    stop: Optional[StopToken] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> CampaignReport:
    """Build, execute, and grade a full campaign.

    Cases run on :func:`~repro.analysis.runner.run_tasks` with
    ``on_error="record"`` and one retry, so a case that *raises* (as
    opposed to failing its grade) lands in ``job_failures`` without
    disturbing any other case.  Parallel campaigns (``jobs > 1``) share
    the process-wide warm :class:`~repro.runtime.pool.WorkerPool` and
    dispatch cases in batches of adaptive size (a ``timeout`` forces
    per-case dispatch) — the report stays assembled in case order either
    way.  Failing cases are shrunk to minimal
    replayable reproducers unless ``minimize`` is off.

    With ``journal`` set, each case's outcome is appended (and fsynced)
    to an append-only journal the moment it lands; ``resume=True``
    validates an existing journal against this spec's fingerprint
    (:class:`~repro.durability.StaleJournalError` if it was written for
    a different campaign) and skips every journaled case, while
    ``resume=False`` truncates and starts fresh.  ``stop`` is the
    cooperative interrupt token — when it trips, the in-flight prefix is
    flushed to the journal and
    :class:`~repro.durability.RunInterrupted` propagates to the caller.
    Because cases are deterministic and the report is assembled in case
    order, an interrupted-then-resumed campaign renders byte-identically
    to an uninterrupted one (minimization runs only once all cases have
    completed).

    With ``metrics`` set, verdict counters (``campaign.cases_passed`` /
    ``cases_failed`` / ``job_failures``, covering *fresh* — not
    journal-resumed — cases), end-of-run gauges (``campaign.cases_total``
    / ``pass_rate`` / ``reproducers``) and the runner's task counters
    accumulate into the registry, and a progress heartbeat is logged
    every :data:`HEARTBEAT_EVERY` fresh cases (INFO level — visible
    under ``--verbose``).  With ``tracer`` set, the runner emits one
    ``runner.job`` complete event per fresh case (wall-clock timeline,
    not simulated cycles).
    """
    spec = spec if spec is not None else CampaignSpec()
    cases = build_cases(spec)
    writer: Optional[JournalWriter] = None
    completed: Dict[Any, Any] = {}
    journal_append = None
    if journal is not None:
        writer, payloads = open_journal(
            journal, JOURNAL_KIND, spec_payload(spec), resume=resume
        )
        completed = {
            key: outcome_from_payload(payload)
            for key, payload in payloads.items()
        }

        def journal_append(key: Any, outcome: Any) -> None:
            assert writer is not None
            writer.append(key, outcome_to_payload(outcome))

    todo = len(cases) - len(completed)
    fresh_done = [0]

    def on_result(key: Any, outcome: Any) -> None:
        # Journal first: the durable record must land even if a metrics
        # sink ever misbehaves.
        if journal_append is not None:
            journal_append(key, outcome)
        fresh_done[0] += 1
        if metrics is not None:
            if isinstance(outcome, JobFailure):
                metrics.counter(
                    "campaign.job_failures", "Cases that raised instead of grading"
                ).inc()
            elif outcome.passed:
                metrics.counter(
                    "campaign.cases_passed", "Fresh cases graded PASS"
                ).inc()
            else:
                metrics.counter(
                    "campaign.cases_failed", "Fresh cases graded FAIL"
                ).inc()
        if fresh_done[0] % HEARTBEAT_EVERY == 0:
            logger.info(
                "campaign progress: %d/%d fresh case(s) done", fresh_done[0], todo
            )

    try:
        raw = run_tasks(
            cases, execute_case, workers=jobs, on_error="record",
            retries=1, timeout=timeout,
            completed=completed, on_result=on_result, stop=stop,
            metrics=metrics, tracer=tracer,
        )
    finally:
        # On RunInterrupted the journal already holds every completed
        # case (appends are fsynced per record); just release the handle
        # before the interrupt propagates to the caller's checkpoint.
        if writer is not None:
            writer.close()
    report = CampaignReport(spec=spec)
    by_id = {case.case_id: case for case in cases}
    for case in cases:
        outcome = raw[case.case_id]
        if isinstance(outcome, JobFailure):
            report.job_failures.append(outcome)
        else:
            report.results.append(outcome)
    if minimize:
        # Imported lazily: minimize replays cases through execute_case,
        # so a top-level import would cycle.
        from .minimize import case_to_dict, minimize_case

        for result in report.failures[:max_reproducers]:
            minimal, final = minimize_case(by_id[result.case_id])
            report.reproducers.append(
                Reproducer(
                    case_id=result.case_id,
                    minimized=minimal,
                    result=final,
                    json=json.dumps(case_to_dict(minimal), sort_keys=True),
                )
            )
    if metrics is not None:
        passed = len(report.results) - len(report.failures)
        metrics.gauge(
            "campaign.cases_total", "Cases in the last completed campaign"
        ).set(report.total)
        metrics.gauge(
            "campaign.pass_rate", "Graded pass fraction of the last campaign"
        ).set(passed / report.total if report.total else 1.0)
        metrics.gauge(
            "campaign.reproducers", "Minimal reproducers emitted"
        ).set(len(report.reproducers))
    return report
