"""Distributed matrix transpose — the communication core of the 2-D FFT.

An ``n x n`` matrix distributed by blocks of rows over P processors is
transposed by a complete exchange: processor *i* sends to processor *j*
the ``(n/P) x (n/P)`` sub-block that lands in *j*'s rows of the
transpose.  Every pair exchanges the same number of bytes, which is why
matrix transpose and 2-D FFT are the canonical complete-exchange
workloads (Section 3, citing Johnsson & Ho).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..schedules.irregular import EXCHANGE_ALGORITHMS
from ..schedules.schedule import Schedule

__all__ = [
    "EXCHANGE_ALGORITHMS",
    "block_bytes",
    "transpose_schedule",
    "local_transpose_blocks",
]

def block_bytes(n: int, nprocs: int, elem_bytes: int = 8) -> int:
    """Bytes of one ``(n/P) x (n/P)`` transpose block.

    ``elem_bytes`` defaults to 8 — single-precision complex, the working
    precision of the era's FFTs.
    """
    if n % nprocs:
        raise ValueError(f"matrix size {n} not divisible by {nprocs} processors")
    blk = n // nprocs
    return blk * blk * elem_bytes


def transpose_schedule(
    n: int, nprocs: int, algorithm: str, elem_bytes: int = 8
) -> Schedule:
    """Complete-exchange schedule moving the transpose's off-diagonal blocks."""
    try:
        gen = EXCHANGE_ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"choose from {sorted(EXCHANGE_ALGORITHMS)}"
        ) from None
    return gen(nprocs, block_bytes(n, nprocs, elem_bytes))


def local_transpose_blocks(
    rows: np.ndarray, nprocs: int, received: List[np.ndarray], rank: int
) -> np.ndarray:
    """Assemble this rank's rows of the transpose from exchanged blocks.

    ``rows`` is the rank's original ``(n/P, n)`` row block; ``received``
    holds, per source rank, the ``(n/P, n/P)`` block of the *source's*
    rows restricted to this rank's columns.  ``received[rank]`` may be
    None (own block, taken locally).
    """
    blk, n = rows.shape[0], rows.shape[1]
    if n % nprocs or n // nprocs != blk:
        raise ValueError(f"inconsistent block shape {rows.shape} for P={nprocs}")
    out = np.empty((blk, n), dtype=rows.dtype)
    for src in range(nprocs):
        block = (
            rows[:, rank * blk : (rank + 1) * blk]
            if src == rank
            else received[src]
        )
        if block is None:
            raise ValueError(f"missing transpose block from rank {src}")
        out[:, src * blk : (src + 1) * blk] = block.T
    return out
