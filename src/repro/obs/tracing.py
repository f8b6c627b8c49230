"""Structured event tracing: Chrome trace-event + JSONL export.

A :class:`Tracer` collects the per-store lifecycle the paper's Fig. 4
chain describes — SecPB accept / coalesce / drain, early-vs-late
metadata steps, backflow and store-buffer stalls, crash/recovery phases
— as Chrome trace-event records keyed by **simulated cycles** (the
``ts``/``dur`` unit), so a capture loads directly into Perfetto or
``chrome://tracing`` with the simulated timeline intact.

Zero overhead when disabled: instrumented code *binds* emit closures
once per run (``hook = tracer.bind_complete(...) if tracer else None``)
and guards each hot-loop site with ``if hook is not None``.  With no
tracer the per-op cost is one ``is not None`` test on a local — the
PR 3 hot-loop gate (``benchmarks/test_simulator_hot_loop.py``) holds.
Tracing never feeds back into timing or statistics: a traced run is
byte-identical to an untraced one.

Lanes (Chrome ``tid``) separate the event classes visually:

====  ==================  ============================================
tid   lane                events
====  ==================  ============================================
1     stores              ``secpb.accept`` / ``secpb.coalesce``
2     drain engine        ``secpb.drain`` (one slice per drained entry)
3     stalls              ``secpb.backflow`` / ``core.sb_stall`` /
                          ``secpb.forced_drain``
4     crash/recovery      ``crash.*`` / ``recovery.*`` phases
====  ==================  ============================================
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Union

from ..durability import write_artifact

__all__ = [
    "LANE_CRASH",
    "LANE_DRAIN",
    "LANE_STALLS",
    "LANE_STORES",
    "Tracer",
]

LANE_STORES = 1
LANE_DRAIN = 2
LANE_STALLS = 3
LANE_CRASH = 4

_DEFAULT_LANE_NAMES = {
    LANE_STORES: "stores",
    LANE_DRAIN: "drain engine",
    LANE_STALLS: "stalls",
    LANE_CRASH: "crash/recovery",
}

Args = Optional[Dict[str, Any]]


class Tracer:
    """An in-memory event sink with Chrome trace-event export.

    Args:
        pid: Chrome process id for every event (one simulated system).
        process_name: label for the process lane in the trace viewer.
        clock_unit: documentation-only label for the ``ts`` unit; the
            simulator emits simulated cycles, the runner wall seconds.
    """

    def __init__(
        self,
        pid: int = 1,
        process_name: str = "secpb-sim",
        clock_unit: str = "cycles",
    ):
        self.pid = pid
        self.process_name = process_name
        self.clock_unit = clock_unit
        self.events: List[Dict[str, Any]] = []
        self._lane_names: Dict[int, str] = dict(_DEFAULT_LANE_NAMES)

    def __len__(self) -> int:
        return len(self.events)

    def name_lane(self, tid: int, name: str) -> None:
        """Label a lane (Chrome thread) in the exported trace."""
        self._lane_names[int(tid)] = name

    # Bound emitters (hot-path API) ---------------------------------------

    def bind_complete(
        self, name: str, cat: str, tid: int
    ) -> Callable[[float, float, Args], None]:
        """A closure emitting ``ph="X"`` (complete) events for one site.

        The returned closure takes ``(ts, dur, args=None)``; name, cat,
        pid and tid are frozen at bind time so the per-event work is one
        dict literal and one list append.
        """
        events_append = self.events.append
        pid = self.pid

        def emit(ts: float, dur: float, args: Args = None) -> None:
            event: Dict[str, Any] = {
                "ph": "X",
                "name": name,
                "cat": cat,
                "ts": ts,
                "dur": dur,
                "pid": pid,
                "tid": tid,
            }
            if args is not None:
                event["args"] = args
            events_append(event)

        return emit

    def bind_instant(
        self, name: str, cat: str, tid: int
    ) -> Callable[[float, Args], None]:
        """A closure emitting ``ph="i"`` (instant) events for one site."""
        events_append = self.events.append
        pid = self.pid

        def emit(ts: float, args: Args = None) -> None:
            event: Dict[str, Any] = {
                "ph": "i",
                "name": name,
                "cat": cat,
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "s": "t",
            }
            if args is not None:
                event["args"] = args
            events_append(event)

        return emit

    def bind_counter(
        self, name: str, tid: int
    ) -> Callable[[float, Dict[str, float]], None]:
        """A closure emitting ``ph="C"`` (counter series) events."""
        events_append = self.events.append
        pid = self.pid

        def emit(ts: float, values: Dict[str, float]) -> None:
            events_append(
                {
                    "ph": "C",
                    "name": name,
                    "cat": "counter",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": values,
                }
            )

        return emit

    # Convenience one-shot emitters ---------------------------------------

    def complete(
        self, name: str, cat: str, tid: int, ts: float, dur: float, args: Args = None
    ) -> None:
        self.bind_complete(name, cat, tid)(ts, dur, args)

    def instant(self, name: str, cat: str, tid: int, ts: float, args: Args = None) -> None:
        self.bind_instant(name, cat, tid)(ts, args)

    # Exports --------------------------------------------------------------

    def _metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "cat": "__metadata",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": f"{self.process_name} (ts in {self.clock_unit})"},
            }
        ]
        for tid in sorted(self._lane_names):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "cat": "__metadata",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": self._lane_names[tid]},
                }
            )
        return events

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        return {
            "traceEvents": self._metadata_events() + self.events,
            "displayTimeUnit": "ms",
            "metadata": {"clock_unit": self.clock_unit},
        }

    def to_jsonl(self) -> str:
        """One JSON object per line, in emission order (no metadata)."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    def save_chrome(self, path: Union[str, "object"]) -> None:
        """Write the Chrome trace atomically with a SHA-256 manifest."""
        payload = json.dumps(self.to_chrome(), indent=2, sort_keys=True) + "\n"
        write_artifact(path, payload)

    def save_jsonl(self, path: Union[str, "object"]) -> None:
        """Write the JSONL event stream atomically with a manifest."""
        write_artifact(path, self.to_jsonl())
