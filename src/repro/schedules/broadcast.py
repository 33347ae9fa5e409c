"""Broadcast schedules: Linear Broadcast (LIB) and Recursive Broadcast (REB).

Paper Section 3.6.  LIB has the source send the message to each of the
other N-1 processors one at a time.  REB is a recursive-doubling tree in
lg N steps: with source 0, step 1 sends 0 -> N/2, step 2 sends
0 -> N/4 and N/2 -> 3N/4, and so on (Figure 9).

Unlike the *system* broadcast (control network, all nodes of the
partition must participate), both are user-level data-network programs
and can target a subgroup — the "selective broadcast" a mesh-configured
application needs for row/column broadcasts.  REB beats the system
broadcast once the message outgrows the control network's modest
streaming rate (Figures 10-11).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from .schedule import Schedule, transfer_columns

__all__ = ["linear_broadcast", "recursive_broadcast"]


def _resolve_group(
    nprocs: int, root: int, group: Optional[Sequence[int]]
) -> List[int]:
    members = list(group) if group is not None else list(range(nprocs))
    if len(set(members)) != len(members):
        raise ValueError("broadcast group has duplicate ranks")
    for m in members:
        if not 0 <= m < nprocs:
            raise ValueError(f"group member {m} outside 0..{nprocs - 1}")
    if root not in members:
        raise ValueError(f"root {root} not in broadcast group")
    return members


def linear_broadcast(
    nprocs: int,
    root: int,
    nbytes: int,
    group: Optional[Sequence[int]] = None,
) -> Schedule:
    """LIB: the root sends to every group member in turn (N-1 steps)."""
    members = _resolve_group(nprocs, root, group)
    with obs.span("build/LIB", category="build", nprocs=nprocs):
        dst = np.array([m for m in members if m != root], dtype=np.int64)
        return Schedule(
            nprocs,
            transfer_columns(np.arange(dst.size), root, dst, nbytes),
            name="LIB",
        )


def recursive_broadcast(
    nprocs: int,
    root: int,
    nbytes: int,
    group: Optional[Sequence[int]] = None,
) -> Schedule:
    """REB: recursive-doubling broadcast in lg |group| steps (Figure 9).

    The group size must be a power of two.  The root is rotated to
    group-relative position 0; in step *j* every member at a position
    divisible by ``2 * distance`` (``distance = |group| / 2**j``)
    forwards the message ``distance`` positions ahead.
    """
    members = _resolve_group(nprocs, root, group)
    n = len(members)
    if n & (n - 1):
        raise ValueError(f"REB group size must be a power of two, got {n}")
    rpos = members.index(root)
    # Group-relative position p is member ring[p], the root at 0.
    ring = np.array(members, dtype=np.int64)[(np.arange(n) + rpos) % n]

    with obs.span("build/REB", category="build", nprocs=nprocs):
        # Step s (0-based) has 2**s senders, at multiples of 2 * distance.
        nsteps = n.bit_length() - 1
        step = np.repeat(np.arange(nsteps), 1 << np.arange(nsteps))
        distance = n >> (step + 1)
        pos = (np.arange(step.size) - (1 << step) + 1) * 2 * distance
        return Schedule(
            nprocs,
            transfer_columns(step, ring[pos], ring[pos + distance], nbytes),
            name="REB",
        )
