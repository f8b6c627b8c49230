"""Failing-case minimization and replayable JSON reproducers.

When a campaign case fails, the raw scenario is large (dozens of stores,
four processes, a mid-stream crash).  :func:`minimize_case` shrinks it
greedily — fewer stores, earlier crash, one process, smaller working set
— re-executing each candidate and keeping it only while the failure
still reproduces (same ``expected`` grade, still failing).  The result
round-trips through :func:`save_reproducer` / :func:`load_reproducer` as
a small JSON file, and :func:`replay_reproducer` re-runs it from disk —
so a failure found in a 200-case parallel campaign becomes a one-file,
one-command, deterministic bug report.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..durability import read_checked, write_artifact
from .cases import CaseResult, FaultCase, TamperSpec

#: Reproducer file-format version (bump on incompatible field changes).
#: Version 2 adds the optional embedded ``recorded_result`` verdict so a
#: replay can detect divergence from what the campaign observed; version
#: 1 files (case only) are still read.
REPRODUCER_VERSION = 2

#: Oldest reproducer version this build still loads.
_MIN_REPRODUCER_VERSION = 1

#: Upper bound on candidate re-executions during one minimization.
_MAX_SHRINK_ATTEMPTS = 64


def _safe_execute(case: FaultCase) -> CaseResult:
    """Execute a candidate, folding a raised exception into a failed grade.

    Minimization probes candidate cases that may be degenerate in ways
    the campaign never produces; a candidate that *raises* is reported
    as a distinct failed outcome (``observed="error: ..."``) rather than
    aborting the shrink — it never silently disappears.
    """
    from .campaign import execute_case  # lazy: campaign imports this module

    try:
        return execute_case(case)
    except Exception as exc:  # noqa: BLE001 - folded into the grade
        return CaseResult(
            case_id=case.case_id,
            scheme=case.scheme,
            crash_kind=case.crash_kind,
            passed=False,
            expected="no-exception",
            observed=f"error: {type(exc).__name__}: {exc}",
        )


def _reproduces(candidate: FaultCase, reference: CaseResult) -> Optional[CaseResult]:
    """The candidate's result when it still shows the reference failure."""
    result = _safe_execute(candidate)
    if not result.passed and result.expected == reference.expected:
        return result
    return None


def minimize_case(case: FaultCase) -> Tuple[FaultCase, CaseResult]:
    """Greedily shrink a failing case; returns (minimal case, its result).

    Deterministic and bounded: every probe re-executes the candidate
    from scratch (at most :data:`_MAX_SHRINK_ATTEMPTS` times), and a
    shrink step is kept only if the same failure grade still reproduces.
    If ``case`` does not fail at all, it is returned unchanged with its
    (passing) result.
    """
    reference = _safe_execute(case)
    if reference.passed:
        return case, reference
    best, best_result = case, reference
    attempts = 0

    def try_shrink(**changes: Any) -> bool:
        nonlocal best, best_result, attempts
        if attempts >= _MAX_SHRINK_ATTEMPTS:
            return False
        attempts += 1
        try:
            candidate = dataclasses.replace(best, **changes)
        except ValueError:
            return False  # shrink produced an invalid case shape
        result = _reproduces(candidate, reference)
        if result is None:
            return False
        best, best_result = candidate, result
        return True

    # Drop the post-crash tail: stores after the crash only matter for
    # app-crash cases, and even there a shorter tail often reproduces.
    while best.num_stores > best.crash_index and try_shrink(
        num_stores=max(best.crash_index, best.num_stores // 2)
    ):
        pass
    # Crash earlier (halving), which also truncates the prefix workload.
    while best.crash_index > 1 and try_shrink(
        crash_index=best.crash_index // 2,
        num_stores=max(best.num_stores // 2, best.crash_index // 2, 1),
    ):
        pass
    # Collapse to a single process, then a smaller working set.
    if best.num_asids > 1:
        try_shrink(num_asids=1, victim_asid=0)
    while best.working_set > 1 and try_shrink(
        working_set=max(1, best.working_set // 2)
    ):
        pass
    return best, best_result


# JSON round-trip -----------------------------------------------------------


def case_to_dict(case: FaultCase) -> Dict[str, Any]:
    """Pure-JSON form of a case (see :data:`REPRODUCER_VERSION`)."""
    payload = dataclasses.asdict(case)
    payload["version"] = REPRODUCER_VERSION
    return payload


def case_from_dict(payload: Dict[str, Any]) -> FaultCase:
    """Rebuild a case from :func:`case_to_dict` output.

    Raises:
        ValueError: on an unknown reproducer version or malformed fields.
    """
    data = dict(payload)
    version = data.pop("version", REPRODUCER_VERSION)
    data.pop("recorded_result", None)  # verdict metadata, not a case field
    if not _MIN_REPRODUCER_VERSION <= version <= REPRODUCER_VERSION:
        raise ValueError(
            f"unsupported reproducer version {version!r} (this build reads "
            f"versions {_MIN_REPRODUCER_VERSION}..{REPRODUCER_VERSION})"
        )
    tamper = data.get("tamper")
    if tamper is not None:
        data["tamper"] = TamperSpec(**tamper)
    return FaultCase(**data)


def save_reproducer(
    case: FaultCase,
    path: Union[str, Path],
    result: Optional[CaseResult] = None,
) -> Path:
    """Write a replayable JSON reproducer; returns the path written.

    When the campaign's graded ``result`` is supplied it is embedded as
    ``recorded_result``, so a later ``repro faultcampaign --replay`` can
    detect a *divergent* replay (code changed, verdict changed) rather
    than only pass/fail.  The file lands atomically with a SHA-256
    sidecar manifest (:func:`repro.durability.write_artifact`) — a crash
    mid-save can never leave a truncated reproducer that parses.
    """
    path = Path(path)
    payload = case_to_dict(case)
    if result is not None:
        payload["recorded_result"] = dataclasses.asdict(result)
    write_artifact(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_reproducer(
    path: Union[str, Path],
) -> Tuple[FaultCase, Optional[CaseResult]]:
    """A reproducer's case and recorded verdict, from one read of the file.

    The verdict is ``None`` for version-1 files.  A file whose SHA-256
    manifest (:func:`save_reproducer` writes one) does not match raises,
    so an edited or torn reproducer never replays; a file without a
    manifest (hand-written) loads.

    Raises:
        repro.durability.ArtifactError: the manifest does not match.
        OSError: the file cannot be read.
        ValueError, TypeError: malformed JSON, version or fields.
    """
    payload = json.loads(read_checked(path))
    case = case_from_dict(payload)
    recorded = payload.get("recorded_result")
    return case, None if recorded is None else CaseResult(**recorded)


def load_reproducer(path: Union[str, Path]) -> FaultCase:
    """Read a case back from a :func:`save_reproducer` file."""
    return read_reproducer(path)[0]


def load_recorded_result(path: Union[str, Path]) -> Optional[CaseResult]:
    """The verdict embedded in a reproducer, or ``None`` (version-1 files)."""
    return read_reproducer(path)[1]


def replay_reproducer(path: Union[str, Path]) -> CaseResult:
    """Load and re-execute a saved reproducer (deterministic replay)."""
    from .campaign import execute_case  # lazy: campaign imports this module

    return execute_case(load_reproducer(path))


@dataclasses.dataclass(frozen=True)
class ReplayOutcome:
    """A replayed reproducer's verdict next to the recorded one.

    ``recorded`` is ``None`` for version-1 reproducers (no embedded
    verdict) — those can only be graded pass/fail, never divergent.
    """

    result: CaseResult
    recorded: Optional[CaseResult]

    @property
    def diverged(self) -> bool:
        """The replay produced a different verdict than the campaign saw."""
        return self.recorded is not None and self.result != self.recorded

    def diff(self) -> str:
        """Unified diff of the recorded vs replayed verdict dicts."""
        if self.recorded is None:
            return ""

        def dump(result: CaseResult) -> list:
            text = json.dumps(
                dataclasses.asdict(result), indent=2, sort_keys=True
            )
            return (text + "\n").splitlines(keepends=True)

        return "".join(
            difflib.unified_diff(
                dump(self.recorded),
                dump(self.result),
                fromfile="recorded verdict",
                tofile="replayed verdict",
            )
        )


def replay_with_verdict(path: Union[str, Path]) -> ReplayOutcome:
    """Replay a reproducer and compare against its recorded verdict."""
    from .campaign import execute_case  # lazy: campaign imports this module

    case, recorded = read_reproducer(path)
    return ReplayOutcome(result=execute_case(case), recorded=recorded)
