"""Per-step helpers shared by the schedule tests.

A :class:`~repro.schedules.Schedule` is its int64 step columns.  The
tests that think in steps build and read schedules through the
per-transfer view here: :class:`Transfer` and :class:`Step`, with
:func:`schedule_of` and :func:`steps_of` to cross between the two
forms, and :meth:`Step.render` as the oracle of
:meth:`Schedule.render_table`.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.schedules import CommPattern, Schedule, ScheduleError
from repro.schedules.schedule import (
    COLUMNS,
    LOWER_RECV_FIRST,
    _is_int,
    check_transfer,
)


@dataclass(frozen=True)
class Transfer:
    """One directed message within a step.

    Its ranks and byte counts are integers that fit int64, the columns'
    dtype; it raises the schedule gate's error on any other."""

    src: int
    dst: int
    nbytes: int
    #: Bytes the sender must gather into a staging buffer first (REX).
    pack_bytes: int = 0
    #: Bytes the receiver must scatter out of the staging buffer after.
    unpack_bytes: int = 0

    def __post_init__(self) -> None:
        for name in COLUMNS[1:]:
            value = getattr(self, name)
            if type(value) is not int and not _is_int(value):
                raise ScheduleError(f"transfer {name} must be an integer, got {value!r}")
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


def schedule_of(
    nprocs,
    steps: Iterable[Iterable[Transfer]],
    name: str = "schedule",
    exchange_order: str = LOWER_RECV_FIRST,
) -> Schedule:
    """The schedule whose steps are ``steps`` (empty ones included)."""
    steps = [tuple(step) for step in steps]
    rows = [
        (i, t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes)
        for i, step in enumerate(steps)
        for t in step
    ]
    cols = np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS)).T
    return Schedule(nprocs, cols, name, exchange_order, nsteps=len(steps))


def steps_of(schedule: Schedule) -> Tuple[Step, ...]:
    """The schedule's steps, one :class:`Step` per step index."""
    steps: List[List[Transfer]] = [[] for _ in range(schedule.nsteps)]
    for step, *fields in zip(*schedule.columns.tolist()):
        steps[step].append(Transfer(*fields))
    return tuple(Step(tuple(s)) for s in steps)


def render_table(schedule: Schedule) -> str:
    """:meth:`Schedule.render_table` step by step, over :func:`steps_of`."""
    lines = [f"{schedule.name} ({schedule.nprocs} processors, {schedule.nsteps} steps)"]
    for i, step in enumerate(steps_of(schedule), start=1):
        lines.append(f"  Step {i}: {step.render()}")
    return "\n".join(lines)


def assert_one_receive_per_rank_per_step(schedule):
    """No rank receives two messages in one step.  The linter allows it
    (the linear family's serialized receiver); the other builders never
    do it."""
    step, dst = schedule.columns[0], schedule.columns[2]
    seats = set(zip(step.tolist(), dst.tolist()))
    assert len(seats) == step.size, f"{schedule.name}: a rank receives twice in a step"


def transfers(schedule):
    """``(step_index, transfer)`` over the schedule's steps."""
    return ((i, t) for i, step in enumerate(steps_of(schedule)) for t in step)


def checked_step(transfers):
    """A :class:`Step` of ``transfers``, raising on a repeated pair the
    error the schedule constructor raises for it.  A per-transfer reader
    that checks each step as it builds it meets the errors in document
    order, which is the order the column checks keep."""
    seen = set()
    for t in transfers:
        if (t.src, t.dst) in seen:
            raise ScheduleError(f"duplicate transfer {t.src}->{t.dst} in step")
        seen.add((t.src, t.dst))
    return Step(tuple(transfers))


def shift_pattern(nprocs: int, offset: int, nbytes: int) -> CommPattern:
    """The cyclic shift: every rank sends ``nbytes`` to ``(rank +
    offset) mod nprocs``; an offset that is a multiple of ``nprocs``
    moves nothing.  Section 3's third regular pattern, a permutation."""
    m = np.zeros((nprocs, nprocs), dtype=np.int64)
    k = offset % nprocs
    if k:
        src = np.arange(nprocs)
        m[src, (src + k) % nprocs] = nbytes
    return CommPattern(m)
