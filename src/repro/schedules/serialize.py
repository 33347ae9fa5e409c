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

Both directions work on the int64 step columns
(:attr:`~repro.schedules.schedule.Schedule.columns`): the writer splits
them at the step bounds, and the reader checks the decoded rows in one
pass and builds the columns with one array.  Every malformed document
raises the :class:`ScheduleError` a transfer-by-transfer read would,
first error in document order first; a document the one-pass check
refuses is re-read row by row to find it.  Empty steps survive a round
trip, a trailing one too (the reader passes the document's step count
to :class:`~repro.schedules.schedule.Schedule`).
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterable, List, Optional, Union

import numpy as np

from .schedule import COLUMNS, Schedule, ScheduleError, check_transfer

__all__ = [
    "schedule_to_json",
    "schedule_from_json",
    "save_schedule",
    "load_schedule",
]

_FORMAT = "repro-schedule"
_VERSION = 1


def schedule_to_json(schedule: Schedule) -> str:
    """Stable JSON encoding of a schedule, read from its columns."""
    cols = schedule.columns
    rows = cols[1:].T.tolist()
    bounds = np.searchsorted(cols[0], np.arange(schedule.nsteps + 1)).tolist()
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "name": schedule.name,
        "nprocs": schedule.nprocs,
        "exchange_order": schedule.exchange_order,
        "steps": [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
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
        return _decode(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


_TRANSFER_FIELDS = ("src", "dst", "nbytes", "pack_bytes", "unpack_bytes")


def _not_int(field: str, value: object) -> ScheduleError:
    """Ranks and byte counts must be plain ``int``s: a float or bool is
    rejected rather than truncated into a different schedule."""
    return ScheduleError(f"{field} must be an integer, got {value!r}")


def _decode(doc: dict) -> Schedule:
    """The schedule of a versioned document, built as columns.

    A document whose steps are lists of five-int lists, with an int
    ``nprocs`` and both names present, is checked in one pass and its
    transfers' own checks run on the columns; any other is read row by
    row (:func:`_scan`).  Either way the first error in document order
    is raised: a row's, then ``nprocs``' type, then the names', then
    the schedule gate's (exchange order, ``nprocs`` range, rank
    range)."""
    steps = doc["steps"]
    nprocs = doc.get("nprocs")
    cols = None
    if type(nprocs) is int and "name" in doc and "exchange_order" in doc:
        cols = _columns(steps)
    if cols is None:
        steps = _scan(steps)
        nprocs = doc["nprocs"]
        if type(nprocs) is not int:
            raise _not_int("nprocs", nprocs)
        cols = _columns(steps)
    return Schedule(
        nprocs, cols, str(doc["name"]), str(doc["exchange_order"]), len(steps)
    )


def _columns(steps: object) -> Optional[np.ndarray]:
    """The ``(6, M)`` columns of ``steps``, or None unless every step is
    a list of five-field lists of ints that fit int64."""
    if type(steps) is not list or not {*map(type, steps)} <= {list}:
        return None
    rows = list(chain.from_iterable(steps))
    if not ({*map(type, rows)} <= {list} and {*map(len, rows)} <= {5}):
        return None
    fields = list(chain.from_iterable(rows))
    if not {*map(type, fields)} <= {int}:
        return None
    cols = np.empty((len(COLUMNS), len(rows)), dtype=np.int64)
    try:
        cols[1:] = np.array(fields, dtype=np.int64).reshape(-1, 5).T
    except OverflowError:
        return None
    cols[0] = np.repeat(np.arange(len(steps)), [*map(len, steps)])
    return cols


def _scan(steps: Iterable) -> List[List[list]]:
    """The steps of a document the one-pass check refused, read row by
    row as the per-transfer decoder read them: the first error in
    document order is raised with that decoder's text (a row's shape or
    field type, its own checks, then its step's duplicate pair), and a
    document without one comes back as lists."""
    out = []
    for step_no, step in enumerate(steps, start=1):
        rows: List[list] = []
        for index, fields in enumerate(step, start=1):
            src, dst, nbytes, pack, unpack = row = tuple(fields)
            for name, value in zip(_TRANSFER_FIELDS, row):
                if type(value) is not int:
                    raise _not_int(f"step {step_no} transfer {index} {name}", value)
            check_transfer(src, dst, nbytes, pack, unpack)
            rows.append(list(row))
        seen = set()
        for src, dst, *_ in rows:
            if (src, dst) in seen:
                raise ScheduleError(f"duplicate transfer {src}->{dst} in step")
            seen.add((src, dst))
        out.append(rows)
    return out


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> Path:
    """Write the schedule to ``path`` (JSON); returns the path."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(schedule_to_json(schedule))
    return p


def load_schedule(path: Union[str, Path]) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule`."""
    return schedule_from_json(Path(path).read_text())
