"""Pairwise Exchange (PEX) and Pairwise Scheduling (PS).

Paper Section 3.2 (Figure 2): N-1 steps; in step *j* each processor
exchanges with the partner obtained by XOR-ing its rank with *j*.  The
whole pattern decomposes into disjoint pairwise exchanges, which uses
the full-duplex network well and keeps processors busy — the classic
hypercube complete-exchange schedule (Bokhari's iPSC studies).

Pairwise Scheduling (Section 4.2) uses the same pairing on an irregular
pattern: a determined pair performs an exchange, a single send, or
idles, depending on the ``Pattern`` matrix.  Deadlock freedom comes from
the paper's ordering rule: the lower-numbered processor of a pair
receives first (captured as ``exchange_order=LOWER_RECV_FIRST``).
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

import numpy as np

from .. import obs
from .pattern import CommPattern
from .schedule import LOWER_RECV_FIRST, Schedule, compact_steps

__all__ = ["pairwise_schedule", "pairwise_exchange", "pairing_schedule"]


def pairing_schedule(
    nprocs: int,
    partner_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    name: str,
    pattern: Optional[CommPattern] = None,
    nbytes: int = 0,
) -> Schedule:
    """Build a schedule from a per-step perfect pairing of processors.

    ``partner_fn(ranks, j)`` maps an array of ranks to their partners in
    step ``j`` (arrays broadcast); for every step it must be an
    involution with no fixed points.  Both PEX and BEX (and their
    irregular variants) are instances — they differ only in the pairing
    function.  Step ``j`` (1..N-1) lists each pair ``lo < hi`` once, in
    ascending ``lo``: ``lo -> hi`` then ``hi -> lo``.

    Without ``pattern`` it is a uniform complete exchange of ``nbytes``
    per message, zero-byte messages kept: the paper's Figures 5-8 sweep
    message sizes down to 0 bytes, where the exchange still performs
    every rendezvous and pays every latency.  With ``pattern`` a pair
    moves only the pattern's non-zero entries, and steps left empty are
    dropped — the paper counts only non-empty steps (Tables 8 and 9).
    """
    n = nprocs
    nbytes = operator.index(nbytes)
    if n < 2 or n & (n - 1):
        raise ValueError(f"pairing schedules need a power-of-two size, got {n}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    with obs.span(f"build/{name}", category="build", nprocs=n):
        j = np.arange(1, n)[:, None]
        ranks = np.arange(n)[None, :]
        partner = np.broadcast_to(partner_fn(ranks, j), (n - 1, n))
        back = partner_fn(partner, j)
        bad = np.flatnonzero((partner == ranks) | (back != ranks))
        if bad.size:
            step, rank = divmod(int(bad[0]), n)
            if partner[step, rank] == rank:
                raise ValueError(
                    f"{name}: pairing has a fixed point at rank {rank}, "
                    f"step {step + 1}"
                )
            raise ValueError(
                f"{name}: pairing is not an involution at step {step + 1}: "
                f"{rank}->{partner[step, rank]}->{back[step, rank]}"
            )
        step, lo = np.nonzero(ranks < partner)
        hi = partner[step, lo]
        # Each pair's two directions, interleaved: lo -> hi, hi -> lo.
        step = np.repeat(step, 2)
        src = np.stack((lo, hi), axis=1).ravel()
        dst = np.stack((hi, lo), axis=1).ravel()
        if pattern is None:
            size = np.full(src.size, nbytes, dtype=np.int64)
        else:
            size = pattern.matrix[src, dst]
            keep = size != 0
            step, src, dst, size = step[keep], src[keep], dst[keep], size[keep]
            step = compact_steps(step)
        zeros = np.zeros_like(size)
        return Schedule(
            n,
            np.stack((step, src, dst, size, zeros, zeros)),
            name=name,
            exchange_order=LOWER_RECV_FIRST,
        )


def _xor_partner(rank: np.ndarray, j: np.ndarray) -> np.ndarray:
    return rank ^ j


def pairwise_schedule(pattern: CommPattern, name: str = "PS") -> Schedule:
    """Pairwise Scheduling of an irregular pattern (paper Table 8)."""
    return pairing_schedule(pattern.nprocs, _xor_partner, name, pattern=pattern)


def pairwise_exchange(nprocs: int, nbytes: int) -> Schedule:
    """Pairwise Exchange: complete exchange in N-1 steps (Table 2)."""
    return pairing_schedule(nprocs, _xor_partner, "PEX", nbytes=nbytes)
