"""Atomic artifact writes with SHA-256 sidecar manifests.

A result file that a crash can truncate is worse than no result file:
the next consumer deserializes garbage or, worse, half a report that
parses.  Every artifact here is therefore written with the classic
write-ahead discipline — write a temporary file in the *same directory*,
flush, ``fsync``, then ``os.replace`` over the destination (atomic on
POSIX), then fsync the directory so the rename itself is durable.  Each
step runs through :mod:`repro.envfault.fsfault`, the one path the chaos
checker grades; with no fault armed it is the plain syscall.

:func:`write_artifact` additionally writes a sidecar manifest
(``<name>.sha256``) holding the artifact's SHA-256 digest and size, and
:func:`verify_artifact` checks an on-disk artifact against it — a
truncated or bit-flipped file grades :attr:`ArtifactStatus.MISMATCH`
instead of being consumed.  :func:`quarantine_artifact` moves a bad
artifact (and its manifest) aside under a ``.quarantined`` suffix so the
evidence survives while the path is freed for regeneration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from enum import Enum
from pathlib import Path
from typing import Dict, Union

from ..envfault import fsfault as _fsfault

logger = logging.getLogger(__name__)

MANIFEST_SUFFIX = ".sha256"
"""Sidecar manifest suffix: ``report.json`` -> ``report.json.sha256``."""

QUARANTINE_SUFFIX = ".quarantined"
"""Suffix a corrupt artifact is renamed under (evidence, not garbage)."""

MANIFEST_VERSION = 1


class ArtifactStatus(Enum):
    """Verdict of :func:`verify_artifact` for one on-disk artifact."""

    OK = "ok"
    MISSING = "missing"
    UNMANIFESTED = "unmanifested"
    MISMATCH = "mismatch"


class ArtifactError(Exception):
    """An artifact failed verification when its content was required."""

    def __init__(self, path: Union[str, Path], status: ArtifactStatus):
        super().__init__(f"artifact {path}: {status.value}")
        self.path = Path(path)
        self.status = status


def _fsync_dir(directory: Path) -> None:
    """Make a completed rename in ``directory`` durable (POSIX fsync)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError as exc:
        # e.g. platforms that cannot open directories — degraded but
        # not wrong (the rename itself already happened), so log, don't
        # fail the write.
        logger.debug("cannot fsync directory %s: %s", directory, exc)
        return
    try:
        _fsfault.fsync(fd, "artifact.dir_fsync")
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (temp → fsync → rename).

    A reader never observes a partial file: either the old content (or
    absence) or the complete new content.  The temporary file lives in
    the destination directory so the final ``os.replace`` cannot cross
    filesystems.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        with os.fdopen(fd, "wb") as handle:
            _fsfault.write(handle, data, "artifact.write")
            handle.flush()
            _fsfault.fsync(handle.fileno(), "artifact.fsync")
        _fsfault.replace(str(tmp), str(path), "artifact.rename")
    except BaseException:
        try:
            os.unlink(str(tmp))
        except OSError as exc:
            # Best-effort cleanup; the original error is what matters,
            # but a lingering temp file is worth a trace in the log.
            logger.debug("cannot remove temp file %s: %s", tmp, exc)
        raise
    _fsync_dir(path.parent)
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def manifest_path(path: Union[str, Path]) -> Path:
    """The sidecar manifest path for ``path``."""
    path = Path(path)
    return path.parent / (path.name + MANIFEST_SUFFIX)


def _digest(data: bytes) -> str:
    """SHA-256 hex digest of ``data`` — the manifest's content key."""
    return hashlib.sha256(data).hexdigest()


def write_artifact(path: Union[str, Path], data: Union[str, bytes]) -> Path:
    """Atomically write an artifact plus its SHA-256 sidecar manifest.

    The artifact lands first, the manifest second (both atomic): a crash
    between the two leaves an artifact that grades
    :attr:`ArtifactStatus.UNMANIFESTED` — unverifiable, so it is
    quarantined or rewritten, never silently trusted.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    atomic_write_bytes(path, data)
    manifest: Dict[str, object] = {
        "algorithm": "sha256",
        "digest": _digest(data),
        "manifest_version": MANIFEST_VERSION,
        "size": len(data),
    }
    atomic_write_text(
        manifest_path(path), json.dumps(manifest, sort_keys=True) + "\n"
    )
    return path


def verify_artifact(path: Union[str, Path]) -> ArtifactStatus:
    """Grade an on-disk artifact against its sidecar manifest.

    Returns:
        :attr:`ArtifactStatus.OK` when the digest and size match;
        ``MISSING`` when the artifact itself is absent; ``UNMANIFESTED``
        when no (readable) manifest exists; ``MISMATCH`` for truncation,
        bit flips, or a malformed manifest.
    """
    path = Path(path)
    if not path.is_file():
        return ArtifactStatus.MISSING
    sidecar = manifest_path(path)
    if not sidecar.is_file():
        return ArtifactStatus.UNMANIFESTED
    try:
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        expected_digest = manifest["digest"]
        expected_size = manifest["size"]
    except (ValueError, KeyError, TypeError):
        return ArtifactStatus.MISMATCH
    data = path.read_bytes()
    if len(data) != expected_size or _digest(data) != expected_digest:
        return ArtifactStatus.MISMATCH
    return ArtifactStatus.OK


def quarantine_artifact(path: Union[str, Path]) -> Path:
    """Move a bad artifact (and manifest, if any) aside; returns new path.

    The original path is freed for regeneration while the corrupt bytes
    are preserved as ``<name>.quarantined`` for post-mortem inspection.
    """
    path = Path(path)
    quarantined = path.parent / (path.name + QUARANTINE_SUFFIX)
    os.replace(str(path), str(quarantined))
    sidecar = manifest_path(path)
    if sidecar.is_file():
        os.replace(str(sidecar), str(sidecar) + QUARANTINE_SUFFIX)
    _fsync_dir(path.parent)
    return quarantined


def read_verified(path: Union[str, Path]) -> bytes:
    """Read an artifact's bytes, insisting the manifest verifies.

    Raises:
        ArtifactError: when the artifact is missing, unmanifested, or
            fails digest verification.
    """
    status = verify_artifact(path)
    if status is not ArtifactStatus.OK:
        raise ArtifactError(path, status)
    return Path(path).read_bytes()
