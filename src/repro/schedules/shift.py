"""Shift: the paper's third regular communication pattern.

Section 3 names "shift, complete exchange, broadcast" as the regular
patterns; shift is the one the paper does not evaluate (every processor
sends one message to the processor ``offset`` positions away, modulo N).
It is the communication kernel of distributed stencil sweeps
(:mod:`repro.apps.stencil`), so the library provides it: a one-step
permutation schedule, executable by the ordinary executor (the mixed
send/receive ordering rule keeps even full rings deadlock-free under
synchronous sends).
"""

from __future__ import annotations

import numpy as np

from .schedule import Schedule, transfer_columns

__all__ = ["shift_schedule"]


def shift_schedule(nprocs: int, offset: int, nbytes: int) -> Schedule:
    """Every rank sends ``nbytes`` to ``(rank + offset) mod nprocs``.

    ``offset`` may be negative (left shift); ``offset % nprocs == 0``
    yields an empty schedule (nothing to move).
    """
    if nprocs < 2:
        raise ValueError(f"need at least 2 processors, got {nprocs}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    k = offset % nprocs
    src = np.arange(nprocs if k else 0)
    return Schedule.from_columns(
        nprocs,
        transfer_columns(0, src, (src + k) % nprocs, nbytes),
        name=f"SHIFT{offset:+d}" if k else "SHIFT0",
    )
