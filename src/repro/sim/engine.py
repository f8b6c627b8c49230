"""Cycle bookkeeping primitives for the trace-driven timing model.

The SecPB simulator is not a full discrete-event simulator; the paper's own
analytic validation (Sec. VI-B) shows the first-order behaviour is captured
by a pipeline model in which the core retires instructions at a base rate
and stalls when the store path backs up.  This module provides the
pieces that model needs:

* :class:`BusyResource` — a single-server resource (e.g. the SecPB's one
  in-flight BMT-update engine, the NVM write port) on which work items
  serialize; requesting the resource returns both the wait and the
  completion time, and
* :class:`BoundedPipeline` — the store buffer: a bounded FIFO window of
  outstanding completions whose push returns the core's stall.

Hot store paths keep a single-server FIFO as a ``free_at`` float of their
own, or read and write a shared :class:`BusyResource`'s ``free_at`` in
place (the SecPB's compiled pricing, :meth:`repro.core.controller.SecPBController.compile_pricing`);
``request`` is the reference they equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Tuple


@dataclass
class BusyResource:
    """A single-server FIFO resource with service latency per request.

    Models structural hazards such as "one in-flight BMT update" (paper
    Sec. VI-B: "the overheads observed stem from constraining the system to
    one in-flight BMT update").  ``free_at`` is all its state: when the
    last request finishes.
    """

    name: str
    free_at: float = 0.0

    def request(self, now: float, service_cycles: float) -> Tuple[float, float]:
        """Occupy the resource for ``service_cycles`` starting no earlier
        than ``now``.

        Returns:
            (wait_cycles, completion_time): how long the requester queued
            behind earlier work, and when this request finishes.
        """
        if service_cycles < 0:
            raise ValueError("service time must be non-negative")
        start = max(now, self.free_at)
        wait = start - now
        completion = start + service_cycles
        self.free_at = completion
        return wait, completion


@dataclass
class BoundedPipeline:
    """Tracks occupancy of a bounded in-flight window (e.g. store buffer).

    The core may have up to ``depth`` operations outstanding; pushing work
    when the window is full stalls until the oldest completes.

    The window is a FIFO: outstanding completion times sit in a ``deque``
    in push order and retire from the left.  That is exact only when
    completions never decrease, which holds for every user: SecPB
    acceptance and SP's MC tuple engine are both FIFO servers.
    :meth:`push` checks it and raises ``ValueError`` on a completion below
    the newest one in the window.
    """

    name: str
    depth: int
    _completions: Deque[float] = field(default_factory=deque)

    def push(self, now: float, completion: float) -> float:
        """Add an operation completing at ``completion``.

        Returns:
            Stall cycles suffered because the window was full at ``now``.

        Raises:
            ValueError: ``completion`` is below the newest one in the window.
        """
        completions = self._completions
        if completions and completion < completions[-1]:
            raise ValueError(
                f"{self.name}: completion {completion} precedes the newest "
                f"outstanding one ({completions[-1]})"
            )
        # Retire everything already finished.
        while completions and completions[0] <= now:
            completions.popleft()
        stall = 0.0
        if len(completions) >= self.depth:
            # Must wait for the oldest outstanding op to retire.
            stall = completions[0] - now
            release = now + stall
            while completions and completions[0] <= release:
                completions.popleft()
        completions.append(completion)
        return stall

    @property
    def occupancy(self) -> int:
        return len(self._completions)
