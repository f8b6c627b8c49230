"""Filesystem fault shims: the one code path of every durability write.

Each helper performs one primitive the durability layer needs — write,
fsync, rename — and first counts one occurrence of the named op
against the armed :class:`~repro.envfault.context.EnvFaultContext`
(:func:`~repro.envfault.context.due`).  When the plane is off, or no
fault is due at this occurrence, the helper performs the plain syscall,
so normal runs take exactly the path the chaos checker grades.

Fault semantics:

- ``enospc`` / ``eio`` / ``eintr`` — raise the corresponding
  :class:`OSError` before any bytes move (for ``eintr`` this models the
  rare pre-PEP-475 surfacing callers must still survive).
- ``torn_write`` — write the first ``arg`` bytes (or characters, for
  text handles; journal records are canonical-JSON ASCII so the two
  coincide), flush them so the tear really lands on disk, then raise
  ``ENOSPC`` — the classic half-a-record crash state.
- ``fsync_drop`` — a *lying* fsync: return success without syncing, the
  failure mode of consumer drives that ack before the platter.
- ``rename_fail`` — the ``os.replace`` publishing an artifact fails.
"""

from __future__ import annotations

import errno
import os
from typing import IO, Union

from .context import due


def _raise_for(kind: str, detail: str) -> None:
    if kind == "enospc":
        raise OSError(errno.ENOSPC, f"envfault: no space left ({detail})")
    if kind == "eio":
        raise OSError(errno.EIO, f"envfault: I/O error ({detail})")
    if kind == "eintr":
        raise InterruptedError(
            errno.EINTR, f"envfault: interrupted ({detail})"
        )
    raise AssertionError(f"unhandled fs fault kind {kind!r}")


def write(
    handle: IO[Union[str, bytes]], data: Union[str, bytes], op: str
) -> None:
    """``handle.write(data)``, possibly failing or tearing mid-record."""
    spec = due(op)
    if spec is None:
        handle.write(data)
        return
    if spec.kind == "torn_write":
        torn_at = min(spec.arg, len(data))
        handle.write(data[:torn_at])
        handle.flush()  # the tear must actually land on disk
        raise OSError(
            errno.ENOSPC,
            f"envfault: write torn after {torn_at} of {len(data)} byte(s)",
        )
    _raise_for(spec.kind, op)


def fsync(fd: int, op: str) -> None:
    """``os.fsync(fd)``, possibly failing — or lying and skipping it."""
    spec = due(op)
    if spec is None:
        os.fsync(fd)
        return
    if spec.kind == "fsync_drop":
        return  # acked but not durable
    _raise_for(spec.kind, op)


def replace(src: str, dst: str, op: str) -> None:
    """``os.replace(src, dst)``, possibly failing before publishing."""
    if due(op) is not None:
        raise OSError(
            errno.EIO, f"envfault: rename {src!r} -> {dst!r} failed"
        )
    os.replace(src, dst)
