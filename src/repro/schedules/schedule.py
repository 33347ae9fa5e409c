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
builder makes its schedule from columns, and everything in the library
that reads a schedule (the executor, the linter, the estimators, the
metrics, repair, the JSON writer, :meth:`Schedule.render_table` and the
scheduling service) reads them.

The constructor runs one gate over the columns (:func:`_check_columns`):
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
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "COLUMNS",
    "MAX_NPROCS",
    "MAX_STEPS",
    "compact_steps",
    "transfer_columns",
    "Schedule",
    "ScheduleError",
]

#: Exchange-ordering conventions (who moves first inside a pairwise swap).
LOWER_RECV_FIRST = "lower_recv_first"  # Figure 2 (PEX) and the irregular family
LOWER_SEND_FIRST = "lower_send_first"  # Figure 3 (REX)
_ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)


class ScheduleError(ValueError):
    """A schedule violates a structural or coverage invariant."""


#: The rows of :attr:`Schedule.columns`: a transfer's step index, source
#: and destination ranks, payload bytes, and the bytes the sender packs and
#: the receiver unpacks around the wire (REX's staging).
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


@dataclass(frozen=True, eq=False)
class Schedule:
    """An ordered sequence of steps implementing a communication pattern,
    given as step columns and checked without a Python loop.

    ``columns`` is an integer array of shape ``(6, M)``, its rows
    :data:`COLUMNS`, one entry per transfer: step indices start at 0 and
    never decrease, and transfers keep schedule order within a step (a
    skipped index is an empty step).  The schedule stores it as a
    read-only, C-contiguous int64 array (the kernel's compile reads it
    through the buffer protocol).  ``nsteps`` counts the steps when the
    last ones are empty, which the columns cannot show; by default the
    schedule ends at its last transfer's step.  The gate
    (:func:`_check_columns`) checks both.
    """

    nprocs: int
    columns: np.ndarray
    name: str = "schedule"
    #: Who moves first within an exchange (see module docstring).
    exchange_order: str = LOWER_RECV_FIRST
    nsteps: Optional[int] = None

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns)
        if cols.ndim != 2 or cols.shape[0] != len(COLUMNS):
            raise ScheduleError(
                f"schedule columns must have shape (6, M), got {cols.shape}"
            )
        if cols.dtype.kind not in "iu" or not np.can_cast(cols.dtype, np.int64):
            raise ScheduleError(f"schedule columns must be int64, got {cols.dtype}")
        cols = cols.astype(np.int64, order="C")
        cols.setflags(write=False)
        nsteps = _check_columns(cols, self.nprocs, self.exchange_order, self.nsteps)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "nsteps", nsteps)

    def _key(self) -> Tuple[Any, ...]:
        return (self.nprocs, self.name, self.exchange_order, self.nsteps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(
            self.columns, other.columns
        )

    def __hash__(self) -> int:
        return hash((self._key(), self.columns.tobytes()))

    @property
    def total_bytes(self) -> int:
        return int(self.columns[3].sum())

    @property
    def n_messages(self) -> int:
        return self.columns.shape[1]

    def render_table(self) -> str:
        """Multi-line, paper-style rendering of the whole schedule, one
        line of cells per step: each pair that sends both ways renders
        ``lo<->hi`` in the order of its first send, then each one-way
        send ``src->dst`` (``0<->4  3->5``)."""
        rows = list(zip(*self.columns[:3].tolist()))
        sent = set(rows)
        seen: Set[Tuple[int, int, int]] = set()
        exchanges: List[List[str]] = [[] for _ in range(self.nsteps)]
        singles: List[List[str]] = [[] for _ in range(self.nsteps)]
        for step, src, dst in rows:
            seen.add((step, src, dst))
            if (step, dst, src) not in sent:
                singles[step].append(f"{src}->{dst}")
            elif (step, dst, src) not in seen:
                exchanges[step].append(f"{min(src, dst)}<->{max(src, dst)}")
        lines = [f"{self.name} ({self.nprocs} processors, {self.nsteps} steps)"]
        for i, (pairs, sends) in enumerate(zip(exchanges, singles), start=1):
            lines.append(f"  Step {i}: " + "  ".join(pairs + sends))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------
def check_transfer(src: int, dst: int, nbytes: int, pack: int, unpack: int) -> None:
    """A transfer's own checks on integer fields: no self-transfer, no
    negative byte count, every field fits int64.  The texts are the ones
    ``repro validate --schedule`` prints."""
    if src == dst:
        raise ScheduleError(f"self-transfer at rank {src}")
    if nbytes < 0 or pack < 0 or unpack < 0:
        raise ScheduleError(
            f"negative byte count in Transfer(src={src}, dst={dst}, "
            f"nbytes={nbytes}, pack_bytes={pack}, unpack_bytes={unpack})"
        )
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
    :class:`Schedule` rejects a non-integer field's array."""
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
    """The one validity gate of every schedule, run by its constructor
    on its columns; returns the step count (``nsteps``, by default one
    past the last transfer's step).

    The first error raised is the one a transfer-by-transfer read in
    step order would meet first: a transfer's own (self, sign) or its step's duplicate
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
