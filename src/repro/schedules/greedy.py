"""Greedy Scheduling (GS) of irregular patterns.

Paper Section 4.4 (Figure 12).  Instead of the fixed XOR pairings of
PS/BS, each step is assembled greedily: processors are visited in rank
order, and each selects the lowest-numbered destination it still owes a
message to that can accept one this step.  If the reverse message is
also pending, the pair *must* perform an exchange (requiring both
processors' send and receive slots); otherwise a one-directional send
only consumes the sender's send slot and the destination's receive slot,
so a processor can send to one neighbour and receive from another in the
same step (Table 10's step 3: ``0 -> 5`` together with ``7 -> 0``).

For a complete exchange this reduces exactly to pairwise exchange; for
sparse patterns it finishes in fewer steps than PS/BS — the mechanism
behind GS winning below ~50% density — but at high density its unaligned
choices can exceed N-1 steps, which is where BS takes over (Table 11).

The greedy loop runs over plain ints and emits the schedule as int64
step columns (:class:`~repro.schedules.schedule.Schedule`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import obs
from .pattern import CommPattern
from .schedule import LOWER_RECV_FIRST, Schedule, ScheduleError

__all__ = ["greedy_schedule"]

#: Safety bound: a pattern with M messages needs at most M steps.
_MAX_STEP_FACTOR = 1


def greedy_schedule(
    pattern: CommPattern, name: str = "GS", order: str = "lowest"
) -> Schedule:
    """Greedy Scheduling of an irregular pattern (paper Table 10).

    ``order`` selects the destination preference when a processor picks
    its next partner:

    * ``"lowest"`` — the paper's rule (lowest-numbered pending
      destination; reproduces Table 10 exactly);
    * ``"largest_first"`` — an extension: prefer the destination owed
      the most bytes, so big messages start early and small ones fill
      the tail (classic LPT-style list scheduling).  Coverage and step
      bounds are identical; measured gains are small in practice
      because a node's makespan share is its *total* traffic, which no
      ordering changes — the option exists to make that negative result
      reproducible.
    """
    if order not in ("lowest", "largest_first"):
        raise ValueError(f"unknown order {order!r}")
    with obs.span(f"build/{name}", category="build", nprocs=pattern.nprocs):
        return _greedy_build(pattern, name, order)


def _greedy_build(pattern: CommPattern, name: str, order: str) -> Schedule:
    n = pattern.nprocs
    matrix = pattern.matrix.tolist()
    # remaining[i]: the destinations rank i still owes, in preference
    # order; owed[i]: the same as a set.
    remaining = [np.flatnonzero(row).tolist() for row in pattern.matrix]
    if order == "largest_first":
        # Stable: ties fall back to the paper's lowest-first rule.
        remaining = [
            sorted(dests, key=lambda j: -row[j])
            for dests, row in zip(remaining, matrix)
        ]
    owed = [set(dests) for dests in remaining]
    pending = sum(map(len, remaining))
    max_steps = max(1, pending) * _MAX_STEP_FACTOR + n
    rows: List[int] = []  # step, src, dst, nbytes per transfer
    step = 0

    while pending:
        if step > max_steps:  # pragma: no cover - progress is proven
            raise ScheduleError(f"{name}: failed to drain pattern")
        send_free = [True] * n
        recv_free = [True] * n
        picked: List[Tuple[int, int]] = []
        for i in range(n):
            if not send_free[i]:
                continue
            for j in remaining[i]:
                if i in owed[j]:
                    # Reverse message also pending: must be an exchange.
                    if send_free[j] and recv_free[i] and recv_free[j]:
                        picked += ((i, j), (j, i))
                        send_free[i] = send_free[j] = False
                        recv_free[i] = recv_free[j] = False
                        break
                elif recv_free[j]:
                    picked.append((i, j))
                    send_free[i] = False
                    recv_free[j] = False
                    break
        if not picked:  # pragma: no cover - first pick always succeeds
            raise ScheduleError(f"{name}: no progress with {pending} pending")
        for i, j in picked:
            owed[i].discard(j)
            remaining[i].remove(j)
            rows += (step, i, j, matrix[i][j])
        pending -= len(picked)
        step += 1

    cols = np.zeros((6, len(rows) // 4), dtype=np.int64)
    cols[:4] = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return Schedule(n, cols, name, LOWER_RECV_FIRST)
