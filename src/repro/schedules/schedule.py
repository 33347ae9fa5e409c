"""Schedule representation: steps of point-to-point transfers.

A *schedule* organizes the transfers of a communication pattern into a
sequence of steps, exactly like the paper's Tables 1-4 and 7-10.  Within
a step, transfers proceed concurrently; a processor appearing in two
opposite-direction transfers with the same partner performs an
*exchange* (rendered ``i <-> j``), a single direction renders ``i -> j``.

Schedules are pure data — no simulated time.  They are produced by the
algorithm modules (:mod:`repro.schedules.pex` etc.), checked by the
validators here, measured by :mod:`repro.schedules.metrics`, and priced
by :mod:`repro.schedules.executor`.

Store-and-forward algorithms (REX) move *staged* data: a transfer's
``pack_bytes`` / ``unpack_bytes`` record the buffer shuffling the node
must perform around the wire operation, and the transferred bytes need
not equal any single pattern entry.  Such schedules are validated by
their own algorithm-specific routing checks instead of
:func:`check_covers_pattern`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .pattern import CommPattern

__all__ = [
    "Transfer",
    "Step",
    "Schedule",
    "ScheduleError",
    "validate_structure",
    "check_covers_pattern",
]

#: Exchange-ordering conventions (who moves first inside a pairwise swap).
LOWER_RECV_FIRST = "lower_recv_first"  # Figure 2 (PEX) and the irregular family
LOWER_SEND_FIRST = "lower_send_first"  # Figure 3 (REX)
_ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)


class ScheduleError(ValueError):
    """A schedule violates a structural or coverage invariant."""


@dataclass(frozen=True)
class Transfer:
    """One directed message within a step."""

    src: int
    dst: int
    nbytes: int
    #: Bytes the sender must gather into a staging buffer first (REX).
    pack_bytes: int = 0
    #: Bytes the receiver must scatter out of the staging buffer after.
    unpack_bytes: int = 0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ScheduleError(f"self-transfer at rank {self.src}")
        if self.nbytes < 0 or self.pack_bytes < 0 or self.unpack_bytes < 0:
            raise ScheduleError(f"negative byte count in {self}")

    @property
    def pair(self) -> Tuple[int, int]:
        """Unordered endpoint pair."""
        return (self.src, self.dst) if self.src < self.dst else (self.dst, self.src)


@dataclass(frozen=True)
class Step:
    """A set of concurrent transfers."""

    transfers: Tuple[Transfer, ...]

    def __post_init__(self) -> None:
        seen = set()
        for t in self.transfers:
            key = (t.src, t.dst)
            if key in seen:
                raise ScheduleError(f"duplicate transfer {t.src}->{t.dst} in step")
            seen.add(key)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self.transfers)

    def __len__(self) -> int:
        return len(self.transfers)

    @property
    def participants(self) -> Set[int]:
        out: Set[int] = set()
        for t in self.transfers:
            out.add(t.src)
            out.add(t.dst)
        return out

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
        if self.exchange_order not in _ORDERS:
            raise ScheduleError(f"unknown exchange order {self.exchange_order!r}")
        for step in self.steps:
            for t in step:
                if not (0 <= t.src < self.nprocs and 0 <= t.dst < self.nprocs):
                    raise ScheduleError(
                        f"transfer {t.src}->{t.dst} outside 0..{self.nprocs - 1}"
                    )

    @property
    def nsteps(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def all_transfers(self) -> Iterator[Tuple[int, Transfer]]:
        """Yield ``(step_index, transfer)`` over the whole schedule."""
        for i, step in enumerate(self.steps):
            for t in step:
                yield i, t

    @property
    def total_bytes(self) -> int:
        return sum(t.nbytes for _, t in self.all_transfers())

    @property
    def n_messages(self) -> int:
        return sum(len(s) for s in self.steps)

    def rank_ops(self, rank: int, step_idx: int) -> Tuple[List[Transfer], List[Transfer]]:
        """This rank's (sends, recvs) within one step, schedule order.

        Backed by a lazily built per-step index: the adaptive executor
        asks for every (rank, step) pair, and rescanning the step each
        time is O(nprocs * n_messages) over a run — quadratic in machine
        size.
        """
        try:
            index = self._rank_index
        except AttributeError:
            index = []
            for step in self.steps:
                by_rank: dict = {}
                for t in step:
                    by_rank.setdefault(t.src, ([], []))[0].append(t)
                    by_rank.setdefault(t.dst, ([], []))[1].append(t)
                index.append(by_rank)
            object.__setattr__(self, "_rank_index", index)
        ops = index[step_idx].get(rank)
        return ops if ops is not None else ([], [])

    def render_table(self) -> str:
        """Multi-line, paper-style rendering of the whole schedule."""
        lines = [f"{self.name} ({self.nprocs} processors, {self.nsteps} steps)"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  Step {i}: {step.render()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Validators
# ----------------------------------------------------------------------
def validate_structure(
    schedule: Schedule, allow_multi_recv: bool = False
) -> None:
    """Check per-step resource constraints.

    Every processor may appear in at most one send and at most one
    receive per step (it has one network interface and the software
    layer is sequential).  ``allow_multi_recv`` relaxes the receive
    constraint for the linear (LEX/LS) family, whose defining pathology
    is exactly that one node receives from everybody in a step — the
    messages still *happen*, just serialized, which the executor prices.
    """
    for idx, step in enumerate(schedule.steps):
        send_count: Dict[int, int] = {}
        recv_count: Dict[int, int] = {}
        for t in step:
            send_count[t.src] = send_count.get(t.src, 0) + 1
            recv_count[t.dst] = recv_count.get(t.dst, 0) + 1
        for rank, c in send_count.items():
            if c > 1:
                raise ScheduleError(
                    f"{schedule.name}: rank {rank} sends {c} messages in "
                    f"step {idx + 1}"
                )
        if not allow_multi_recv:
            for rank, c in recv_count.items():
                if c > 1:
                    raise ScheduleError(
                        f"{schedule.name}: rank {rank} receives {c} messages "
                        f"in step {idx + 1}"
                    )


def check_covers_pattern(schedule: Schedule, pattern: CommPattern) -> None:
    """Check the schedule delivers the pattern exactly.

    Every required ``(src, dst)`` transfer must appear exactly once with
    exactly the pattern's byte count, and nothing else may appear.  Not
    applicable to store-and-forward schedules (REX), which are validated
    by block routing instead.
    """
    if schedule.nprocs != pattern.nprocs:
        raise ScheduleError(
            f"{schedule.name}: schedule is for {schedule.nprocs} procs, "
            f"pattern for {pattern.nprocs}"
        )
    seen: Dict[Tuple[int, int], int] = {}
    for step_idx, t in schedule.all_transfers():
        key = (t.src, t.dst)
        if key in seen:
            raise ScheduleError(
                f"{schedule.name}: duplicate transfer {t.src}->{t.dst} "
                f"(steps {seen[key] + 1} and {step_idx + 1})"
            )
        seen[key] = step_idx
        required = pattern[t.src, t.dst]
        if required == 0:
            raise ScheduleError(
                f"{schedule.name}: spurious transfer {t.src}->{t.dst} "
                f"(pattern requires none)"
            )
        if t.nbytes != required:
            raise ScheduleError(
                f"{schedule.name}: transfer {t.src}->{t.dst} carries "
                f"{t.nbytes}B, pattern requires {required}B"
            )
    for src, dst, nbytes in pattern.operations():
        if (src, dst) not in seen:
            raise ScheduleError(
                f"{schedule.name}: missing transfer {src}->{dst} ({nbytes}B)"
            )
