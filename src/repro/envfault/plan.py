"""Deterministic, seedable schedules of OS faults for the harness itself.

PR 4's fault campaigns attack the *simulated* NVM; this module attacks
the harness's own durability and runtime layers — the journal appends,
artifact renames, and worker pools whose good behaviour the
resume-byte-identical guarantee silently assumes.

A :class:`FaultPlan` is a seed plus a tuple of :class:`FaultSpec`
entries.  Each spec names an injection *site* (an ``op`` string such as
``"journal.write"``), the zero-based *occurrence index* of that op at
which the fault fires, a fault *kind* (``"enospc"``, ``"torn_write"``,
``"worker_sigkill"``, ...), an integer ``arg`` (the byte offset for torn
writes), and a ``count`` of consecutive occurrences to hit.  Because
firing is keyed purely by ``(op, occurrence index)`` and the harness's
op streams are deterministic, a plan replays a failure exactly — the
same record tears at the same byte on every run with the same seed.

Plans round-trip through JSON (:meth:`FaultPlan.to_payload` /
:meth:`FaultPlan.from_payload`) so a chaos-soak reproducer is a small
versioned file, and :func:`random_plan` derives a plan from a seed for
the randomized soak mode.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

PLAN_VERSION = 1
"""Fault-plan file-format version (bump on incompatible changes)."""

#: Filesystem fault kinds (interpreted by :mod:`repro.envfault.fsfault`).
FS_KINDS = ("enospc", "eio", "eintr", "fsync_drop", "torn_write", "rename_fail")

#: Process fault kinds (interpreted by :mod:`repro.envfault.procfault`).
PROC_KINDS = ("worker_sigkill", "broken_pool")

ALL_KINDS = FS_KINDS + PROC_KINDS

#: Injection site -> fault kinds that site knows how to interpret.
KINDS_FOR_OP: Dict[str, Tuple[str, ...]] = {
    "journal.write": ("enospc", "eio", "eintr", "torn_write"),
    "journal.fsync": ("enospc", "eio", "fsync_drop"),
    "artifact.write": ("enospc", "eio", "eintr", "torn_write"),
    "artifact.fsync": ("enospc", "eio", "fsync_drop"),
    "artifact.rename": ("rename_fail",),
    "artifact.dir_fsync": ("eio", "fsync_drop"),
    "worker.task": ("worker_sigkill",),
    "runner.harvest": ("broken_pool",),
}

ALL_OPS = tuple(sorted(KINDS_FOR_OP))

#: Default occurrence-index horizon for :func:`random_plan`: faults land
#: somewhere in the first this-many occurrences of their op.
DEFAULT_HORIZON = 40


class PlanError(ValueError):
    """A fault plan (or its JSON form) is malformed."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *kind* fires at occurrence *index* of *op*."""

    op: str
    index: int
    kind: str
    #: Fault-specific integer argument (byte offset for ``torn_write``).
    arg: int = 0
    #: Number of consecutive occurrences hit (``index .. index+count-1``).
    count: int = 1

    def __post_init__(self) -> None:
        if self.op not in KINDS_FOR_OP:
            raise PlanError(
                f"unknown fault op {self.op!r} (known: {', '.join(ALL_OPS)})"
            )
        if self.kind not in KINDS_FOR_OP[self.op]:
            raise PlanError(
                f"fault kind {self.kind!r} cannot fire at op {self.op!r} "
                f"(valid: {', '.join(KINDS_FOR_OP[self.op])})"
            )
        if self.index < 0:
            raise PlanError(f"fault index must be >= 0, got {self.index}")
        if self.count < 1:
            raise PlanError(f"fault count must be >= 1, got {self.count}")
        if self.arg < 0:
            raise PlanError(f"fault arg must be >= 0, got {self.arg}")

    def hits(self, occurrence: int) -> bool:
        """True when this spec fires at the given op occurrence."""
        return self.index <= occurrence < self.index + self.count

    def to_payload(self) -> Dict[str, Any]:
        return {
            "arg": self.arg,
            "count": self.count,
            "index": self.index,
            "kind": self.kind,
            "op": self.op,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise PlanError(f"fault spec must be an object, got {payload!r}")
        try:
            return cls(
                op=str(payload["op"]),
                index=int(payload["index"]),
                kind=str(payload["kind"]),
                arg=int(payload.get("arg", 0)),
                count=int(payload.get("count", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, PlanError):
                raise
            raise PlanError(f"bad fault spec {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault schedule it (or a human) produced."""

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_payload(self) -> Dict[str, Any]:
        return {
            "plan_version": PLAN_VERSION,
            "seed": self.seed,
            "specs": [spec.to_payload() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise PlanError(f"fault plan must be an object, got {payload!r}")
        version = payload.get("plan_version")
        if version != PLAN_VERSION:
            raise PlanError(
                f"unsupported fault-plan version {version!r} "
                f"(this build reads version {PLAN_VERSION})"
            )
        specs = payload.get("specs")
        if not isinstance(specs, list):
            raise PlanError("fault plan carries no 'specs' list")
        return cls(
            seed=int(payload.get("seed", 0)),
            specs=tuple(FaultSpec.from_payload(entry) for entry in specs),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise PlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)


def load_plan(source: Union[str, Path]) -> FaultPlan:
    """Load a plan from a JSON file path *or* an inline JSON string.

    This is what the ``SECPB_ENVFAULT`` environment variable accepts: a
    path to a plan file (the common case — it crosses process boundaries
    to pool workers) or the plan JSON itself.
    """
    text = str(source)
    if not text.lstrip().startswith("{"):
        path = Path(text)
        if not path.is_file():
            raise PlanError(
                f"fault plan {text!r} is neither inline JSON nor a file"
            )
        text = path.read_text(encoding="utf-8")
    return FaultPlan.from_json(text)


def random_plan(
    seed: int, ops: int = 3, kinds: Optional[Iterable[str]] = None
) -> FaultPlan:
    """Derive a fault plan from ``seed``: ``ops`` faults over the sites.

    Restricting ``kinds`` (e.g. to filesystem faults only) drops sites
    that can no longer fire anything.  The same ``(seed, ops, kinds)``
    always yields the same plan; each fault lands in the first
    :data:`DEFAULT_HORIZON` occurrences of its op.

    Two structural guarantees keep generated plans *absorbable* (the
    soak grades un-absorbed faults as violations, so the generator must
    not stack the deck beyond the harness's documented retry budget):
    at most one fault per site (sites are sampled without replacement,
    so ``ops`` is effectively capped at the usable-site count), and at
    most one process fault (``worker.task`` / ``runner.harvest``) per
    plan — two independent pool casualties can push the same task past
    its single retry, which is exhaustion by construction, not a
    robustness bug.
    """
    allowed = tuple(kinds) if kinds is not None else ALL_KINDS
    unknown = [kind for kind in allowed if kind not in ALL_KINDS]
    if unknown:
        raise PlanError(
            f"unknown fault kind(s) {', '.join(sorted(unknown))} "
            f"(known: {', '.join(ALL_KINDS)})"
        )
    usable = [
        op
        for op in ALL_OPS
        if any(kind in allowed for kind in KINDS_FOR_OP[op])
    ]
    if not usable:
        raise PlanError(
            f"no usable injection sites for kinds {', '.join(allowed)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(usable, min(ops, len(usable)))
    proc_sites = [op for op in chosen if op in ("worker.task", "runner.harvest")]
    for extra in proc_sites[1:]:
        chosen.remove(extra)
    specs = []
    for op in chosen:
        choices = [kind for kind in KINDS_FOR_OP[op] if kind in allowed]
        kind = choices[rng.randrange(len(choices))]
        specs.append(
            FaultSpec(
                op=op,
                index=rng.randrange(DEFAULT_HORIZON),
                kind=kind,
                arg=rng.randrange(1, 64) if kind == "torn_write" else 0,
            )
        )
    return FaultPlan(seed=seed, specs=tuple(specs))
