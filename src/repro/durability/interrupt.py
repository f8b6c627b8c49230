"""Cooperative cancellation: stop tokens, deadlines, graceful signals.

The parallel runner cannot safely be killed from the outside — a hard
kill abandons in-flight results and can tear files.  Instead the harness
polls a :class:`StopToken`; when the token trips (SIGINT/SIGTERM via
:func:`graceful_shutdown`, or a wall-clock budget via
:class:`DeadlineToken`) the runner stops handing out new work, salvages
what is already in flight, and raises :class:`RunInterrupted` carrying
everything completed so far.  Callers turn that checkpoint into a
journal flush and exit with :data:`EXIT_RESUMABLE` (75, BSD
``EX_TEMPFAIL``) — a distinct code scripts can test for "re-run me with
``--resume``".
"""

from __future__ import annotations

import logging
import os
import signal
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

logger = logging.getLogger(__name__)

EXIT_RESUMABLE = 75
"""Process exit code for "interrupted but resumable" (BSD ``EX_TEMPFAIL``)."""


_EMERGENCY_CLEANUPS: List[Callable[[], Any]] = []


def register_emergency_cleanup(fn: Callable[[], Any]) -> None:
    """Register a cleanup to run on the forced-exit signal path.

    Subsystems owning external resources that ``atexit`` alone cannot
    guarantee to release — shared-memory segments, lock files — register
    a teardown here.  The handlers run (idempotently, best-effort) when
    a *second* SIGINT/SIGTERM arrives inside :func:`graceful_shutdown`,
    immediately before the process force-exits: the user escalated past
    the cooperative checkpoint, and ``atexit`` will not get a chance.
    """
    if fn not in _EMERGENCY_CLEANUPS:
        _EMERGENCY_CLEANUPS.append(fn)


def run_emergency_cleanups() -> None:
    """Run every registered emergency cleanup, logging (not raising) errors."""
    for fn in list(_EMERGENCY_CLEANUPS):
        try:
            fn()
        except Exception:
            logger.exception("emergency cleanup %r failed", fn)


class StopToken:
    """A latch the runner polls between jobs; trips once, never resets."""

    def __init__(self) -> None:
        self._reason: Optional[str] = None

    @property
    def triggered(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> str:
        return self._reason or ""

    def trip(self, reason: str) -> None:
        """Latch the token; only the first reason is kept."""
        if self._reason is None:
            self._reason = reason

    def check(self) -> bool:
        """Poll hook — subclasses may trip themselves here (deadlines)."""
        return self.triggered


class DeadlineToken(StopToken):
    """A stop token that trips itself once a wall-clock budget elapses.

    The budget is metered on :func:`time.monotonic`, from construction.
    """

    def __init__(self, seconds: float) -> None:
        super().__init__()
        self.seconds = float(seconds)
        self._t0 = time.monotonic()

    def check(self) -> bool:
        elapsed = time.monotonic() - self._t0
        if not self.triggered and elapsed >= self.seconds:
            self.trip(f"deadline of {self.seconds:g}s elapsed")
        return self.triggered


class RunInterrupted(RuntimeError):
    """A run stopped at a checkpoint; carries everything completed so far.

    ``completed`` maps job key -> result for every job that finished
    (including journaled results from a resumed prefix), so the caller
    can flush a journal and report progress before exiting with
    :data:`EXIT_RESUMABLE`.
    """

    def __init__(self, reason: str, completed: Dict[Any, Any]):
        super().__init__(reason)
        self.reason = reason
        self.completed = completed


@contextmanager
def graceful_shutdown(token: StopToken) -> Iterator[StopToken]:
    """Route SIGINT/SIGTERM into ``token`` for the duration of the block.

    The first signal trips the token (the runner then checkpoints and
    exits cleanly); previous handlers are restored on exit so nested or
    subsequent signal use behaves normally.  A *second* signal while the
    token is already tripped means the user escalated past the
    cooperative checkpoint: the registered emergency cleanups run
    (releasing external resources such as shared-memory segments that
    ``atexit`` would otherwise have covered) and the process force-exits
    with :data:`EXIT_RESUMABLE` — the journal written so far is intact,
    so ``--resume`` still works.
    """

    def _handler(signum: int, frame: Any) -> None:
        if token.triggered:
            run_emergency_cleanups()
            os._exit(EXIT_RESUMABLE)
        token.trip(f"received {signal.Signals(signum).name}")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError) as exc:
            # Non-main thread or unsupported platform: poll-only mode.
            logger.debug(
                "cannot install %s handler (%s); relying on polling",
                signal.Signals(sig).name, exc,
            )
    try:
        yield token
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
