"""Append-only JSONL journals of completed harness jobs.

A journal is the harness's write-ahead log: one header line describing
*what* is being computed (kind, spec, and a SHA-256 **fingerprint** of
the spec), then one line per completed job — appended and fsynced the
moment the job finishes.  A SIGKILL or power loss therefore leaves a
valid *prefix*: every line that made it to disk is a complete, replayable
record, and at most one torn trailing line (no terminating newline) is
dropped as the crash tail when the journal is read back.

The fingerprint makes stale journals loud: resuming against a journal
whose header fingerprint does not match the current spec raises
:class:`StaleJournalError` instead of silently merging results from a
different sweep.

Journal keys are the runner's job keys (strings, or tuples of JSON
scalars); :func:`encode_key` / :func:`decode_key` round-trip them through
JSON (tuples become lists on disk and tuples again on read).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Optional, Union

from ..envfault import fsfault as _fsfault

JOURNAL_VERSION = 1
"""Journal file-format version (bump on incompatible layout changes)."""


class JournalError(Exception):
    """A journal file is malformed, truncated mid-file, or mismatched."""


class StaleJournalError(JournalError):
    """The journal cannot be trusted as a resume base.

    Raised when the header's spec fingerprint does not match the
    current spec, or when a record *before the last one* is torn or
    corrupt: later appends wrote past the damage, so truncating at the
    tear would silently drop completed records that the file once held.
    """


def _canonical(payload: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace — stable across runs."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of ``payload``'s canonical JSON form."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def encode_key(key: Any) -> Any:
    """JSON-safe form of a job key (tuples become lists, recursively)."""
    if isinstance(key, tuple):
        return [encode_key(part) for part in key]
    return key


def decode_key(key: Any) -> Any:
    """Invert :func:`encode_key` (lists become tuples, recursively)."""
    if isinstance(key, list):
        return tuple(decode_key(part) for part in key)
    return key


@dataclass
class Journal:
    """One read-back journal: the header plus all completed entries."""

    path: Path
    kind: str
    fingerprint: str
    spec: Dict[str, Any]
    #: decoded job key -> the payload recorded for it (last write wins)
    entries: Dict[Any, Dict[str, Any]] = field(default_factory=dict)
    #: True when a torn trailing line (crash tail) was dropped on read
    dropped_tail: bool = False


def read_journal(path: Union[str, Path]) -> Journal:
    """Parse a journal file, tolerating only a torn *trailing* line.

    Only the final, newline-less line may be torn (the crash tail).  A
    blank or corrupt line that is *followed by* further records means
    the file kept growing past the damage — mid-file corruption, not a
    crash tail — and truncating there would silently lose the records
    after it, so that raises :class:`StaleJournalError` instead.

    Raises:
        JournalError: on a missing/empty file, a bad header, an unknown
            journal version, or a header whose fingerprint does not
            match its own spec.
        StaleJournalError: on a blank or corrupt line anywhere but the
            tail (mid-file corruption).
    """
    path = Path(path)
    if not path.is_file():
        raise JournalError(f"no journal at {path}")
    raw = path.read_bytes().decode("utf-8", errors="replace")
    if not raw:
        raise JournalError(f"journal {path} is empty")
    complete, _, tail = raw.rpartition("\n")
    dropped_tail = bool(tail)
    lines = complete.split("\n") if complete else []
    if not lines:
        raise JournalError(f"journal {path} has no complete header line")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise JournalError(f"journal {path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise JournalError(f"journal {path}: header is not a journal header")
    version = header.get("journal_version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path}: unsupported journal version {version!r} "
            f"(this build reads version {JOURNAL_VERSION})"
        )
    spec = header.get("spec")
    if not isinstance(spec, dict):
        raise JournalError(f"journal {path}: header carries no spec")
    claimed = header.get("fingerprint")
    actual = fingerprint(spec)
    if claimed != actual:
        raise JournalError(
            f"journal {path}: header fingerprint {claimed!r} does not match "
            f"its own spec ({actual}) — the journal was edited or corrupted"
        )
    journal = Journal(
        path=path,
        kind=str(header["kind"]),
        fingerprint=actual,
        spec=spec,
        dropped_tail=dropped_tail,
    )
    body = lines[1:]
    last_real = -1
    for idx, line in enumerate(body):
        if line.strip():
            last_real = idx
    for idx, line in enumerate(body):
        lineno = idx + 2
        if not line.strip():
            # Trailing blank lines are a tolerable tail; a blank line
            # with records *after* it means later appends wrote past a
            # tear — truncating there would drop those records.
            if idx < last_real:
                raise StaleJournalError(
                    f"journal {path}: blank line {lineno} is followed by "
                    f"later records — mid-file corruption, not a crash "
                    f"tail; refusing to resume from this journal"
                )
            continue
        try:
            entry = json.loads(line)
            key = entry["key"]
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError) as exc:
            if idx < last_real:
                raise StaleJournalError(
                    f"journal {path}: corrupt entry at line {lineno} is "
                    f"followed by later records — mid-file corruption, "
                    f"not a crash tail: {exc}"
                ) from exc
            raise JournalError(
                f"journal {path}: corrupt entry at line {lineno}: {exc}"
            ) from exc
        journal.entries[decode_key(key)] = payload
    return journal


class JournalWriter:
    """Append-only writer; every record is flushed and fsynced.

    Use :meth:`create` for a fresh journal (writes the header) or
    :meth:`append_to` to continue one that :func:`read_journal` already
    validated.  Works as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: Path, handle: IO[str]):
        self.path = path
        self._handle: Optional[IO[str]] = handle

    @classmethod
    def create(
        cls, path: Union[str, Path], kind: str, spec: Dict[str, Any]
    ) -> "JournalWriter":
        """Start a new journal for ``spec``, truncating any existing file."""
        path = Path(path)
        if path.parent and not path.parent.is_dir():
            os.makedirs(str(path.parent), exist_ok=True)
        handle = open(str(path), "w", encoding="utf-8")
        writer = cls(path, handle)
        writer._write_line(
            _canonical(
                {
                    "fingerprint": fingerprint(spec),
                    "journal_version": JOURNAL_VERSION,
                    "kind": kind,
                    "spec": spec,
                }
            )
        )
        return writer

    @classmethod
    def append_to(cls, path: Union[str, Path]) -> "JournalWriter":
        """Continue an existing journal (validated via :func:`read_journal`).

        A torn trailing line from a previous crash is first truncated
        away so appended records always start on a fresh line.
        """
        path = Path(path)
        journal = read_journal(path)
        if journal.dropped_tail:
            raw = path.read_bytes()
            keep = raw.rfind(b"\n") + 1
            with open(str(path), "r+b") as repair:
                repair.truncate(keep)
                repair.flush()
                os.fsync(repair.fileno())
        handle = open(str(path), "a", encoding="utf-8")
        return cls(path, handle)

    def _write_line(self, line: str) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        _fsfault.write(self._handle, line + "\n", "journal.write")
        self._handle.flush()
        _fsfault.fsync(self._handle.fileno(), "journal.fsync")

    def append(self, key: Any, payload: Dict[str, Any]) -> None:
        """Durably record one completed job's payload under ``key``."""
        self._write_line(
            _canonical({"key": encode_key(key), "payload": payload})
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
