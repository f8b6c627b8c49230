"""Resilience: the injectable clock and the declarative retry policy.

Before this package, every "try again" in the tree was hand-rolled: the
shm plane counted attach attempts against an inline backoff tuple and
the task runner compared ``attempts <= retries`` in four places.  This
package keeps the two pieces those sites share:

* :class:`RetryPolicy` — capped exponential backoff with deterministic
  key-seeded jitter (no RNG, no clock in the schedule), used by the
  task runner's retry budget and the shm attach;
* the injectable clock (:func:`get_clock` / :class:`ManualClock` /
  :func:`scoped_clock`), through which every wait flows — which is what
  makes retry schedules and whole chaos soaks wall-clock-deterministic
  under test.

Lint rule SPB505 fences raw ``time.sleep`` and hand-rolled
``while/except/continue`` retry loops out of the rest of the tree; this
package is their sanctioned home.

The package imports only the stdlib — it sits *below*
:mod:`repro.durability` in the layering (the interrupt plane's deadline
token uses the clock), so any module in the tree can adopt a policy
without creating an import cycle.
"""

from __future__ import annotations

from .clock import (
    Clock,
    ManualClock,
    SystemClock,
    get_clock,
    scoped_clock,
    set_clock,
)
from .retry import RetryPolicy, jitter_token

__all__ = [
    "Clock",
    "ManualClock",
    "RetryPolicy",
    "SystemClock",
    "get_clock",
    "jitter_token",
    "scoped_clock",
    "set_clock",
]
