"""Journal open/validate glue shared by campaign and runner.

Both resumable front ends (``repro faultcampaign`` and ``repro
experiment``) open their journal with one call, :func:`open_journal`:
on resume, if the journal file exists, it is validated against the
*current* spec (kind and fingerprint must match, else
:class:`~repro.durability.journal.StaleJournalError`) and reopened for
append; otherwise it is created fresh with a header.  It returns the
writer plus the payloads already recorded, which the runner
(``run_tasks(completed=...)``) skips while keeping task order, so the
final report is assembled identically to an uninterrupted run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Tuple, Union

from .journal import (
    JournalWriter,
    StaleJournalError,
    fingerprint,
    read_journal,
)


def open_journal(
    path: Union[str, Path],
    kind: str,
    spec: Dict[str, Any],
    resume: bool = True,
) -> Tuple[JournalWriter, Dict[Any, Dict[str, Any]]]:
    """Open ``path`` for journaling jobs of ``kind`` under ``spec``.

    Returns ``(writer, completed)`` where ``completed`` maps each
    already-journaled job key to its recorded payload (empty for a fresh
    journal).  With ``resume`` false, or when ``path`` does not exist,
    the journal starts fresh, truncating any existing file.

    Raises:
        StaleJournalError: the journal exists but was written for a
            different kind or a spec with a different fingerprint.
        JournalError: the journal exists but is unreadable (corrupt
            header or mid-file corruption).
    """
    path = Path(path)
    if not resume or not path.is_file():
        return JournalWriter.create(path, kind, spec), {}
    journal = read_journal(path)
    if journal.kind != kind:
        raise StaleJournalError(
            f"journal {path} records {journal.kind!r} jobs, not {kind!r}"
        )
    current = fingerprint(spec)
    if journal.fingerprint != current:
        raise StaleJournalError(
            f"journal {path} was written for a different spec "
            f"(journal fingerprint {journal.fingerprint[:12]}…, current "
            f"{current[:12]}…) — rerun without --resume or delete it"
        )
    return JournalWriter.append_to(path), dict(journal.entries)
