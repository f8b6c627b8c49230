"""Crash-safe harness machinery: durable artifacts, journals, resumption.

The simulator studies systems whose whole point is surviving power loss;
this package applies the same write-ahead / atomic-update discipline to
the *harness* that runs those studies, so a SIGTERM, OOM-kill, or power
loss mid-campaign loses at most the jobs that were in flight:

* :mod:`~repro.durability.artifacts` — atomic artifact writes
  (write-temp → fsync → rename) with SHA-256 sidecar manifests, plus
  verification and quarantine of truncated or bit-flipped files;
* :mod:`~repro.durability.journal` — an append-only JSONL journal that
  records each completed job as it finishes, fsynced per record, with a
  spec fingerprint so stale journals are rejected at resume time;
* :mod:`~repro.durability.interrupt` — cooperative stop tokens
  (SIGINT/SIGTERM, wall-clock deadlines), the
  :class:`~repro.durability.interrupt.RunInterrupted` checkpoint
  exception, and the resumable exit code (75, ``EX_TEMPFAIL``);
* :mod:`~repro.durability.resume` — the journal-open/validate glue
  shared by the fault campaign and the experiment runner.

Layering: this package imports nothing from the rest of ``repro``
except the stdlib-only filesystem shims (:mod:`repro.envfault.fsfault`),
through which every journal and artifact write, fsync and rename runs:
with no fault armed they are the plain syscalls, so the path the chaos
checker grades is the one every run takes.  The runner
(:mod:`repro.analysis.runner`), the fault campaign
(:mod:`repro.fault.campaign`), the trace store
(:mod:`repro.workloads.store`), and the CLI all build on it.
"""

from .artifacts import (
    ArtifactError,
    ArtifactStatus,
    atomic_write_bytes,
    atomic_write_text,
    manifest_path,
    quarantine_artifact,
    read_verified,
    verify_artifact,
    write_artifact,
)
from .interrupt import (
    EXIT_RESUMABLE,
    DeadlineToken,
    RunInterrupted,
    StopToken,
    graceful_shutdown,
    register_emergency_cleanup,
    run_emergency_cleanups,
)
from .journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    JournalWriter,
    StaleJournalError,
    decode_key,
    encode_key,
    fingerprint,
    read_journal,
)
from .resume import open_journal

__all__ = [
    "EXIT_RESUMABLE",
    "JOURNAL_VERSION",
    "ArtifactError",
    "ArtifactStatus",
    "DeadlineToken",
    "Journal",
    "JournalError",
    "JournalWriter",
    "RunInterrupted",
    "StaleJournalError",
    "StopToken",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_key",
    "encode_key",
    "fingerprint",
    "graceful_shutdown",
    "manifest_path",
    "open_journal",
    "quarantine_artifact",
    "read_journal",
    "read_verified",
    "register_emergency_cleanup",
    "run_emergency_cleanups",
    "verify_artifact",
    "write_artifact",
]
