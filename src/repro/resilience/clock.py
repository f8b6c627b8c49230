"""Injectable clocks: the one place the resilience plane touches time.

Every retry backoff in :mod:`repro.resilience` sleeps through a
:class:`Clock`, never ``time`` directly (lint rule SPB505 enforces the
same discipline on the rest of the tree), and the interrupt plane's
``--deadline`` token reads one.  That indirection is what makes retry
schedules *wall-clock-deterministic* under test: swap in a
:class:`ManualClock` and a three-attempt backoff "sleeps" by advancing
virtual time instantly, so a chaos soak that injects hundreds of attach
ENOENT races runs at CPU speed and replays byte-identically.

The process-wide active clock (:func:`get_clock` / :func:`set_clock` /
:func:`scoped_clock`) is a plain module global: forked pool workers
inherit it, so arming a :class:`ManualClock` in the parent before the
pool forks virtualizes the workers' retry sleeps too.  Code that must
never be virtualized (e.g. a user-facing ``--deadline`` wall budget)
takes an explicit clock instead of consulting the global.

This module imports nothing from the rest of ``repro`` — it sits below
:mod:`repro.durability` in the layering, exactly like the envfault
leaves.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, List


class Clock:
    """Monotonic seconds plus sleep: the full time surface of resilience."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock (default)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """Virtual time: ``sleep`` advances instantly, tests ``advance`` it.

    Thread-safe, so a test may advance it while another thread sleeps
    on it.  ``sleeps`` records every positive sleep, so tests can assert the
    exact backoff schedule a policy produced without waiting for it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        self.sleeps: List[float] = []

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        with self._lock:
            self._now += float(seconds)
            self.sleeps.append(float(seconds))

    def advance(self, seconds: float) -> None:
        """Move virtual time forward (e.g. past a ``--deadline``)."""
        with self._lock:
            self._now += float(seconds)


_ACTIVE: Clock = SystemClock()


def get_clock() -> Clock:
    """The process-wide active clock (a :class:`SystemClock` by default)."""
    return _ACTIVE


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` as the active clock; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = clock
    return previous


@contextmanager
def scoped_clock(clock: Clock) -> Iterator[Clock]:
    """Install ``clock`` for the duration of the block, then restore.

    Pools forked inside the block inherit ``clock`` as their active
    clock — the chaos soak uses this to virtualize worker-side shm
    attach backoff for the whole armed region.
    """
    previous = set_clock(clock)
    try:
        yield clock
    finally:
        set_clock(previous)
