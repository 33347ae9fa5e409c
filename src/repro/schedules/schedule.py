"""Schedule representation: steps of point-to-point transfers.

A *schedule* organizes the transfers of a communication pattern into a
sequence of steps, exactly like the paper's Tables 1-4 and 7-10.  Within
a step, transfers proceed concurrently; a processor appearing in two
opposite-direction transfers with the same partner performs an
*exchange* (rendered ``i <-> j``), a single direction renders ``i -> j``.

Schedules are pure data — no simulated time.  They are produced by the
algorithm modules (:mod:`repro.schedules.pex` etc.), linted by
:mod:`repro.schedules.validate`, measured by
:mod:`repro.schedules.metrics`, and priced by
:mod:`repro.schedules.executor`.

A schedule's one form is :attr:`Schedule.columns`: six int64 columns
(:data:`COLUMNS`), one entry per transfer in schedule order.  Every
builder makes its schedule with :meth:`Schedule.from_columns`, and
everything in the library that reads a schedule (the executor, the
linter, the estimators, the metrics, repair, the JSON writer and the
scheduling service) reads the columns.  ``steps``, a tuple of
:class:`Step` of :class:`Transfer`, is a view built on first read, for
:meth:`Schedule.render_table`, tests and debugging; a schedule may also
be given as ``steps``, and then derives its columns in its constructor.

Both constructors run one gate over the columns (:func:`_check_columns`):
a schedule that exists is well-formed, so the linter, the compile and
the executor never meet an out-of-range rank, a self-transfer, a
negative byte count or a repeated pair in a step.

Store-and-forward algorithms (REX) move *staged* data: a transfer's
``pack_bytes`` / ``unpack_bytes`` record the buffer shuffling the node
must perform around the wire operation, and the transferred bytes need
not equal any single pattern entry.  Such schedules are validated by
their own algorithm-specific routing checks instead of the linter's
conservation check.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "COLUMNS",
    "MAX_NPROCS",
    "MAX_STEPS",
    "compact_steps",
    "transfer_columns",
    "Transfer",
    "Step",
    "Schedule",
    "ScheduleError",
]

#: Exchange-ordering conventions (who moves first inside a pairwise swap).
LOWER_RECV_FIRST = "lower_recv_first"  # Figure 2 (PEX) and the irregular family
LOWER_SEND_FIRST = "lower_send_first"  # Figure 3 (REX)
_ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)


class ScheduleError(ValueError):
    """A schedule violates a structural or coverage invariant."""


#: The rows of :attr:`Schedule.columns`: a transfer's step index, then
#: its :class:`Transfer` fields.
COLUMNS = ("step", "src", "dst", "nbytes", "pack_bytes", "unpack_bytes")
_FIELDS = COLUMNS[1:]
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


#: The most processors a schedule may name: the CM-5's largest configuration.
MAX_NPROCS = 16384

#: The most steps a schedule may have: no builder makes more steps than
#: a pattern has messages (at most ``MAX_NPROCS**2``), and the compile's
#: packed (rank, step, class, peer) key, at most ``MAX_NPROCS * MAX_STEPS
#: * 3 * MAX_NPROCS`` = 3 * 2**56, then always fits int64.
MAX_STEPS = MAX_NPROCS**2


def _is_int(value: Any) -> bool:
    """``operator.index`` accepts ``value`` (a NumPy integer passes) and
    it is no bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_integer(field: str, value: Any) -> None:
    """A rank or byte count is an integer (:func:`_is_int`)."""
    if not _is_int(value):
        raise ScheduleError(f"transfer {field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Transfer:
    """One directed message within a step.

    Its ranks and byte counts are integers that fit int64, the columns'
    dtype."""

    src: int
    dst: int
    nbytes: int
    #: Bytes the sender must gather into a staging buffer first (REX).
    pack_bytes: int = 0
    #: Bytes the receiver must scatter out of the staging buffer after.
    unpack_bytes: int = 0

    def __post_init__(self) -> None:
        if not (
            type(self.src)
            is type(self.dst)
            is type(self.nbytes)
            is type(self.pack_bytes)
            is type(self.unpack_bytes)
            is int
        ):
            for name in _FIELDS:
                _check_integer(name, getattr(self, name))
        check_transfer(
            self.src, self.dst, self.nbytes, self.pack_bytes, self.unpack_bytes
        )

    @property
    def pair(self) -> Tuple[int, int]:
        """Unordered endpoint pair."""
        return (self.src, self.dst) if self.src < self.dst else (self.dst, self.src)


@dataclass(frozen=True)
class Step:
    """A set of concurrent transfers."""

    transfers: Tuple[Transfer, ...]

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)

    def __len__(self) -> int:
        return len(self.transfers)

    def exchanges_and_singles(
        self,
    ) -> Tuple[List[Tuple[Transfer, Transfer]], List[Transfer]]:
        """Split into exchange pairs (both directions) and lone transfers."""
        directed = {(t.src, t.dst): t for t in self.transfers}
        exchanges: List[Tuple[Transfer, Transfer]] = []
        singles: List[Transfer] = []
        used: Set[Tuple[int, int]] = set()
        for t in self.transfers:
            key = (t.src, t.dst)
            if key in used:
                continue
            rev = directed.get((t.dst, t.src))
            if rev is not None:
                lo, hi = sorted((t, rev), key=lambda x: x.src)
                exchanges.append((lo, hi))
                used.add(key)
                used.add((t.dst, t.src))
            else:
                singles.append(t)
                used.add(key)
        return exchanges, singles

    def render(self) -> str:
        """Paper-style cell list: ``0<->4  3->5`` etc."""
        exchanges, singles = self.exchanges_and_singles()
        cells = [f"{lo.src}<->{hi.src}" for lo, hi in exchanges]
        cells += [f"{t.src}->{t.dst}" for t in singles]
        return "  ".join(cells)


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of steps implementing a communication pattern."""

    nprocs: int
    steps: Tuple[Step, ...]
    name: str = "schedule"
    #: Who moves first within an exchange (see module docstring).
    exchange_order: str = LOWER_RECV_FIRST

    def __post_init__(self) -> None:
        cols = _columns_of(self.steps)
        _check_columns(cols, self.nprocs, self.exchange_order)
        object.__setattr__(self, "_columns", cols)

    @classmethod
    def from_columns(
        cls,
        nprocs: int,
        columns: Any,
        name: str = "schedule",
        exchange_order: str = LOWER_RECV_FIRST,
        nsteps: Optional[int] = None,
    ) -> "Schedule":
        """A schedule given as step columns, checked without a Python loop.

        ``columns`` is an integer array of shape ``(6, M)``, its rows
        :data:`COLUMNS`, one entry per transfer: step indices start at 0
        and never decrease, and transfers keep schedule order within a
        step (a skipped index is an empty step).  ``nsteps`` counts the
        steps when the last ones are empty, which the columns cannot
        show; by default the schedule ends at its last transfer's step.
        The ``steps`` constructor's gate (:func:`_check_columns`) checks
        them and ``nsteps``.  ``steps`` is built on first read.
        """
        cols = np.asarray(columns)
        if cols.ndim != 2 or cols.shape[0] != len(COLUMNS):
            raise ScheduleError(
                f"schedule columns must have shape (6, M), got {cols.shape}"
            )
        if cols.dtype.kind not in "iu" or not np.can_cast(cols.dtype, np.int64):
            raise ScheduleError(f"schedule columns must be int64, got {cols.dtype}")
        cols = cols.astype(np.int64)
        cols.setflags(write=False)
        nsteps = _check_columns(cols, nprocs, exchange_order, nsteps)
        sched = object.__new__(cls)
        for field, value in (
            ("nprocs", nprocs),
            ("name", name),
            ("exchange_order", exchange_order),
            ("_columns", cols),
            ("_nsteps", nsteps),
        ):
            object.__setattr__(sched, field, value)
        return sched

    def __getattr__(self, name: str) -> Any:
        # Called only for a missing attribute: ``steps`` of a schedule
        # built from columns, materialized here once.
        if name != "steps":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        steps = _steps_of(self._columns, self._nsteps)
        object.__setattr__(self, "steps", steps)
        return steps

    @property
    def columns(self) -> np.ndarray:
        """The transfers as a read-only int64 array of shape ``(6, M)``,
        rows :data:`COLUMNS`, in schedule order."""
        return self._columns

    @property
    def nsteps(self) -> int:
        if "steps" in self.__dict__:
            return len(self.steps)
        return self._nsteps

    @property
    def total_bytes(self) -> int:
        return int(self.columns[3].sum())

    @property
    def n_messages(self) -> int:
        return self.columns.shape[1]

    def render_table(self) -> str:
        """Multi-line, paper-style rendering of the whole schedule."""
        lines = [f"{self.name} ({self.nprocs} processors, {self.nsteps} steps)"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  Step {i}: {step.render()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------
_set = object.__setattr__


def _new_transfer(src: int, dst: int, nbytes: int, pack: int, unpack: int) -> Transfer:
    """A :class:`Transfer` from fields that are already checked, set as
    ``__init__`` sets them: writing ``__dict__`` before any ``Transfer(...)``
    ran makes every later ``Transfer`` in the process twice as large."""
    t = object.__new__(Transfer)
    _set(t, "src", src)
    _set(t, "dst", dst)
    _set(t, "nbytes", nbytes)
    _set(t, "pack_bytes", pack)
    _set(t, "unpack_bytes", unpack)
    return t


def check_transfer(src: int, dst: int, nbytes: int, pack: int, unpack: int) -> None:
    """A transfer's own checks on integer fields, in the constructor's
    order and with its texts: no self-transfer, no negative byte count,
    every field fits int64."""
    if src == dst:
        raise ScheduleError(f"self-transfer at rank {src}")
    if nbytes < 0 or pack < 0 or unpack < 0:
        t = _new_transfer(src, dst, nbytes, pack, unpack)
        raise ScheduleError(f"negative byte count in {t}")
    values = (src, dst, nbytes, pack, unpack)
    if min(src, dst) < _INT64_MIN or max(values) > _INT64_MAX:
        for name, value in zip(_FIELDS, values):
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise ScheduleError(f"transfer {name} {value} does not fit int64")


def transfer_columns(
    step: Any, src: Any, dst: Any, nbytes: Any, staged: Any = 0
) -> np.ndarray:
    """The :data:`COLUMNS` rows of transfers given field by field (arrays,
    or scalars broadcast to them), ``staged`` pack and unpack bytes each;
    :meth:`Schedule.from_columns` rejects a non-integer field's array."""
    return np.stack(np.broadcast_arrays(step, src, dst, nbytes, staged, staged))


def compact_steps(step: np.ndarray) -> np.ndarray:
    """A non-decreasing step column renumbered 0, 1, 2, ...: the steps
    no transfer names are dropped, as the paper counts only non-empty
    steps."""
    out = np.zeros(step.size, dtype=np.int64)
    np.cumsum(step[1:] != step[:-1], out=out[1:])
    return out


def packed_key(*keys: np.ndarray) -> Optional[np.ndarray]:
    """One non-negative int64 key per row that orders the rows as the
    key columns do, the first most significant: ``(k0 * r1 + k1) * r2 +
    k2 ...``, each radix one past its column's largest value.  ``None``
    when a column is negative or the product of the radixes passes
    2**63; such keys (a rank the schedule gate is about to reject) are
    grouped with ``np.lexsort`` instead."""
    packed = None
    span = 1
    for key in keys:
        if key.size and key.min() < 0:
            return None
        radix = int(key.max()) + 1 if key.size else 1
        span *= radix
        if span > _INT64_MAX + 1:
            return None
        # While the span equals the radix, the earlier keys are all zero
        # (a radix of 2**63 would not fit an int64 multiply).
        packed = key.astype(np.int64) if span == radix else packed * radix + key
    return packed


def first_occurrence(*keys: np.ndarray, ordered: bool = False) -> np.ndarray:
    """For each row, the index of the first row equal to it in every key
    column (its own index when no earlier row is).  With ``ordered``, the
    rows are already in non-decreasing order of the first key, and one
    stable sort by the other keys groups equal rows.

    The grouping keys are packed into one int64 key (:func:`packed_key`)
    and grouped by one stable argsort.  Unpackable keys fall back to
    ``np.lexsort``."""
    m = keys[0].size
    grouped = keys[1:] if ordered else keys
    packed = packed_key(*grouped)
    if packed is None:
        order = np.lexsort(grouped[::-1])
        runs = [key[order] for key in keys]
    else:
        order = np.argsort(packed, kind="stable")
        runs = [packed[order]] + ([keys[0][order]] if ordered else [])
    new = np.zeros(m, dtype=bool)
    new[:1] = True
    for run in runs:
        new[1:] |= run[1:] != run[:-1]
    if new.all():
        return np.arange(m)
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def _check_columns(
    cols: np.ndarray,
    nprocs: int,
    exchange_order: str,
    nsteps: Optional[int] = None,
) -> int:
    """The one validity gate of every schedule, run by both constructors
    on its columns; returns the step count (``nsteps``, by default one
    past the last transfer's step).

    The first error raised is the one building the steps in order would
    meet first: a transfer's own (self, sign) or its step's duplicate
    pair, then the schedule's (exchange order, processor count, rank
    range, step count).  ``nprocs`` is a non-bool integer in
    2..:data:`MAX_NPROCS`: a :class:`~repro.schedules.pattern.CommPattern`
    and a machine both need two nodes, and the ceiling, the CM-5's
    largest configuration, bounds the O(nprocs) arrays the compile and
    the linter allocate for a schedule read from a file.  The step count
    is at most :data:`MAX_STEPS`.
    """
    step, src, dst = cols[0], cols[1], cols[2]
    if step.size and (step[0] < 0 or (np.diff(step) < 0).any()):
        raise ScheduleError(
            "schedule step column must start at 0 or more and never decrease"
        )
    bad = np.flatnonzero((src == dst) | (cols[3:] < 0).any(axis=0))
    first = first_occurrence(step, src, dst, ordered=True)
    repeat = np.flatnonzero(first != np.arange(step.size))
    dup = int(repeat[0]) if repeat.size else None
    if bad.size and (dup is None or step[bad[0]] <= step[dup]):
        check_transfer(*cols[1:, bad[0]].tolist())
    if dup is not None:
        raise ScheduleError(f"duplicate transfer {src[dup]}->{dst[dup]} in step")
    if exchange_order not in _ORDERS:
        raise ScheduleError(f"unknown exchange order {exchange_order!r}")
    if not (_is_int(nprocs) and 2 <= nprocs <= MAX_NPROCS):
        raise ScheduleError(
            f"schedule nprocs must be an integer in 2..{MAX_NPROCS}, got {nprocs!r}"
        )
    inside = (src >= 0) & (src < nprocs) & (dst >= 0) & (dst < nprocs)
    if not inside.all():
        i = np.flatnonzero(~inside)[0]
        raise ScheduleError(f"transfer {src[i]}->{dst[i]} outside 0..{nprocs - 1}")
    last = int(step[-1]) + 1 if step.size else 0
    if nsteps is None:
        nsteps = last
    elif not _is_int(nsteps):
        raise ScheduleError(f"schedule nsteps must be an integer, got {nsteps!r}")
    elif nsteps < last:
        raise ScheduleError(f"{nsteps} steps cannot hold step index {last - 1}")
    if nsteps > MAX_STEPS:
        raise ScheduleError(f"schedule has {nsteps} steps, more than {MAX_STEPS}")
    return nsteps


def _steps_of(cols: np.ndarray, nsteps: int) -> Tuple[Step, ...]:
    """The ``nsteps`` :class:`Step` tuple of checked columns."""
    step = cols[0]
    transfers = [_new_transfer(*row) for row in zip(*cols[1:].tolist())]
    bounds = np.searchsorted(step, np.arange(nsteps + 1)).tolist()
    steps = []
    for lo, hi in zip(bounds, bounds[1:]):
        s = object.__new__(Step)
        _set(s, "transfers", tuple(transfers[lo:hi]))
        steps.append(s)
    return tuple(steps)


def _columns_of(steps: Tuple[Step, ...]) -> np.ndarray:
    """One pass over ``steps`` into :data:`COLUMNS` rows."""
    flat = [
        value
        for i, step in enumerate(steps)
        for t in step.transfers
        for value in (i, t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes)
    ]
    cols = np.frombuffer(array("q", flat), dtype=np.int64)
    cols = cols.reshape(-1, len(COLUMNS)).T.copy()
    cols.setflags(write=False)
    return cols
