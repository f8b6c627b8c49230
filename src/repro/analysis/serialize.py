"""JSON serialization of experiment results.

Every experiment result object renders as text for humans; this module
flattens them to plain dictionaries (and JSON files) for notebooks,
plotting scripts and regression tracking.  ``save_result`` /
``load_result`` round-trip any of the harness's result types.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from ..durability import ArtifactError, ArtifactStatus, verify_artifact, write_artifact
from ..sim.stats import SimulationResult


def to_jsonable(obj: Any) -> Any:
    """Recursively convert a result object into JSON-compatible data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        data = {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        data["__type__"] = type(obj).__name__
        return data
    if hasattr(obj, "__dict__"):
        return {
            str(k): to_jsonable(v)
            for k, v in vars(obj).items()
            if not k.startswith("_")
        }
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        # Hot-path record types (CacheBlock, SecPBEntry, DrainedEntry, ...)
        # use __slots__ and carry no __dict__.
        return {
            name: to_jsonable(getattr(obj, name))
            for name in slots
            if not name.startswith("_") and hasattr(obj, name)
        }
    return str(obj)


def result_to_dict(result: Any) -> Dict[str, Any]:
    """Flatten one experiment result to a dictionary.

    Works for every result type the harness produces (SchemeOverheads,
    BatteryTable, SizeBatteryTable, SizeSweepResult, BmtUpdatesResult,
    SimulationResult, BatteryEstimate) and anything dataclass-like.
    """
    data = to_jsonable(result)
    if not isinstance(data, dict):
        raise TypeError(f"cannot flatten {type(result).__name__} to a dict")
    return data


def save_result(result: Any, path: str) -> None:
    """Write one result as pretty-printed JSON.

    The write is atomic with a SHA-256 sidecar manifest
    (:func:`repro.durability.write_artifact`), so a crash mid-save never
    leaves a truncated result that parses.
    """
    text = json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n"
    write_artifact(path, text)


def load_result(path: str) -> Dict[str, Any]:
    """Read a JSON result back as a plain dictionary.

    If the file has a sidecar manifest (everything :func:`save_result`
    writes does), it is verified first; a truncated or bit-flipped
    result raises :class:`repro.durability.ArtifactError` instead of
    deserializing garbage.  Unmanifested files (hand-written or from
    older builds) load as before.
    """
    status = verify_artifact(path)
    if status is ArtifactStatus.MISMATCH:
        raise ArtifactError(path, status)
    with open(path) as handle:
        return json.load(handle)


def simulation_result_to_payload(result: SimulationResult) -> Dict[str, Any]:
    """Encode one :class:`SimulationResult` as a JSON-safe journal payload."""
    return {"kind": "sim_result", "data": dataclasses.asdict(result)}


def simulation_result_from_payload(payload: Dict[str, Any]) -> SimulationResult:
    """Invert :func:`simulation_result_to_payload` (journal resume path)."""
    if payload.get("kind") != "sim_result":
        raise ValueError(
            f"unknown experiment journal payload kind {payload.get('kind')!r}"
        )
    return SimulationResult(**payload["data"])


__all__ = [
    "load_result",
    "result_to_dict",
    "save_result",
    "simulation_result_from_payload",
    "simulation_result_to_payload",
    "to_jsonable",
]
