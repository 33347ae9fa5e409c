"""Schedule serialization: compute once, save, replay forever.

Section 4.5's amortization argument assumes the schedule outlives the
process that computed it.  These helpers give schedules a stable JSON
form so an inspector can persist its plan (alongside, e.g., a mesh
partition) and later runs can replay it without re-scheduling:

* :func:`schedule_to_json` / :func:`schedule_from_json` — strings,
* :func:`save_schedule` / :func:`load_schedule` — files.

The format is versioned and validated on load (ranks, byte counts and
``nprocs`` must be JSON integers: a float or boolean is rejected, never
truncated); transfers keep their pack/unpack byte charges, so
store-and-forward schedules (REX) round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .schedule import Schedule, ScheduleError, Step, Transfer

__all__ = [
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
]

_FORMAT = "repro-schedule"
_VERSION = 1


def schedule_to_json(schedule: Schedule) -> str:
    """Stable JSON encoding of a schedule."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "name": schedule.name,
        "nprocs": schedule.nprocs,
        "exchange_order": schedule.exchange_order,
        "steps": [
            [
                [t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes]
                for t in step
            ]
            for step in schedule.steps
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    """Decode a schedule; raises :class:`ScheduleError` on bad input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ScheduleError("not a serialized schedule")
    if doc.get("version") != _VERSION:
        raise ScheduleError(
            f"unsupported schedule format version {doc.get('version')!r}"
        )
    try:
        steps = tuple(
            Step(
                tuple(
                    _transfer(step_no, index, fields)
                    for index, fields in enumerate(step, start=1)
                )
            )
            for step_no, step in enumerate(doc["steps"], start=1)
        )
        nprocs = doc["nprocs"]
        if type(nprocs) is not int:
            raise _not_int("nprocs", nprocs)
        return Schedule(
            nprocs=nprocs,
            steps=steps,
            name=str(doc["name"]),
            exchange_order=str(doc["exchange_order"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


_TRANSFER_FIELDS = ("src", "dst", "nbytes", "pack_bytes", "unpack_bytes")


def _not_int(field: str, value: object) -> ScheduleError:
    """Ranks and byte counts must be plain ``int``s: a float or bool is
    rejected rather than truncated into a different schedule."""
    return ScheduleError(f"{field} must be an integer, got {value!r}")


def _transfer(step_no: int, index: int, fields: list) -> Transfer:
    src, dst, nbytes, pack, unpack = values = tuple(fields)
    for name, value in zip(_TRANSFER_FIELDS, values):
        if type(value) is not int:
            raise _not_int(f"step {step_no} transfer {index} {name}", value)
    return Transfer(src, dst, nbytes, pack, unpack)


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> Path:
    """Write the schedule to ``path`` (JSON); returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(schedule_to_json(schedule))
    return p


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule`."""
    return schedule_from_json(Path(path).read_text())
