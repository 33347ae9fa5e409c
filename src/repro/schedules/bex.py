"""Balanced Exchange (BEX) and Balanced Scheduling (BS).

The paper's contribution (Section 3.4, Figure 4).  PEX's XOR pairing
has a locality pathology on the CM-5 fat tree: in the first steps every
processor exchanges *inside* its cluster of four, and in later step
blocks every processor simultaneously exchanges with a *remote* cluster,
so the root links see bursts of contention.  BEX applies the pairwise
algorithm to *virtual* processor numbers, offset by one from the
physical numbers::

    virtual = (physical + 1) mod N
    partner(physical, j) = ((virtual XOR j) - 1) mod N

The rotation staggers the pairing relative to the physical cluster
boundaries, so each step mixes intra-cluster ("local") and inter-cluster
("global") exchanges: the 3N/4 * N/2 global exchange pairs are spread
across all N-1 steps instead of saturating 3N/4 of the steps
(Section 3.4's accounting).  :mod:`repro.schedules.metrics` measures
exactly this redistribution; the ablation benchmark shows it is where
BEX's advantage comes from.

Balanced Scheduling (Section 4.3) is the same pairing on an irregular
pattern.
"""

from __future__ import annotations

from typing import Any

from .pattern import CommPattern
from .schedule import Schedule
from .pex import pairing_schedule

__all__ = ["balanced_schedule", "balanced_exchange", "bex_partner"]


def bex_partner(rank: Any, j: Any, nprocs: int) -> Any:
    """Figure 4's partner computation (virtual-renumbered XOR pairing);
    ``rank`` and ``j`` may be ints or integer arrays.  Virtual node 0
    (``virtual ^ j == 0``) is physical node ``nprocs - 1``."""
    return (((rank + 1) % nprocs ^ j) - 1) % nprocs


def balanced_schedule(pattern: CommPattern, name: str = "BS") -> Schedule:
    """Balanced Scheduling of an irregular pattern (paper Table 9)."""
    n = pattern.nprocs
    return pairing_schedule(
        n, lambda r, j: bex_partner(r, j, n), name, pattern=pattern
    )


def balanced_exchange(nprocs: int, nbytes: int) -> Schedule:
    """Balanced Exchange: complete exchange in N-1 steps (Table 4)."""
    return pairing_schedule(
        nprocs, lambda r, j: bex_partner(r, j, nprocs), "BEX", nbytes=nbytes
    )
