"""Communication patterns: the paper's ``Pattern[i][j]`` matrix.

A communication pattern is a two-dimensional integer array whose entry
``(i, j)`` is the number of bytes processor *i* must send to processor
*j* (Section 4 of the paper).  Regular patterns (complete exchange,
broadcast) are special cases; irregular patterns come from synthetic
generators or from application halo analysis.

The synthetic generator reproduces the paper's methodology: "we have
created synthetic communication patterns with different communication
densities of 10%, 25%, 50% and 75% of complete exchange" — i.e. each
off-diagonal slot is populated (with the chosen message size) with the
given probability-free *exact* fraction of slots, sampled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["CommPattern", "paper_pattern_P"]


@dataclass(frozen=True)
class _PatternStats:
    """Summary statistics as reported in the paper's Table 12 header."""

    nprocs: int
    density_percent: float
    total_bytes: int
    n_operations: int
    avg_bytes_per_op: float


class CommPattern:
    """An irregular (or regular) communication pattern.

    Immutable wrapper over an ``(N, N)`` array of non-negative ints with a
    zero diagonal.  ``pattern[i, j]`` = bytes from rank ``i`` to ``j``.
    """

    def __init__(self, matrix: Union[np.ndarray, Sequence[Sequence[int]]]):
        m = np.array(matrix, dtype=np.int64, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"pattern must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError("pattern needs at least 2 processors")
        if (m < 0).any():
            raise ValueError("pattern entries must be non-negative byte counts")
        if np.diagonal(m).any():
            raise ValueError("pattern diagonal must be zero (no self-messages)")
        m.setflags(write=False)
        self._m = m

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def complete_exchange(cls, nprocs: int, nbytes: int) -> "CommPattern":
        """Every processor sends ``nbytes`` to every other processor."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        m = np.full((nprocs, nprocs), nbytes, dtype=np.int64)
        np.fill_diagonal(m, 0)
        return cls(m)

    @classmethod
    def synthetic(
        cls,
        nprocs: int,
        density: float,
        nbytes: int,
        seed: int = 0,
    ) -> "CommPattern":
        """Random pattern covering an exact ``density`` fraction of slots.

        ``density`` is the fraction of the ``N * (N - 1)`` off-diagonal
        slots that carry a message of ``nbytes`` bytes — the paper's
        "X% of complete exchange".  Sampling is uniform over slots and
        deterministic in ``seed``.
        """
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        rng = np.random.default_rng(seed)
        slots = [(i, j) for i in range(nprocs) for j in range(nprocs) if i != j]
        k = round(density * len(slots))
        chosen = rng.choice(len(slots), size=k, replace=False)
        m = np.zeros((nprocs, nprocs), dtype=np.int64)
        for idx in chosen:
            i, j = slots[idx]
            m[i, j] = nbytes
        return cls(m)

    @classmethod
    def broadcast(cls, nprocs: int, root: int, nbytes: int) -> "CommPattern":
        """One-to-all: the root sends ``nbytes`` to every other rank."""
        m = np.zeros((nprocs, nprocs), dtype=np.int64)
        m[root, :] = nbytes
        m[root, root] = 0
        return cls(m)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only ``(N, N)`` byte matrix."""
        return self._m

    @property
    def nprocs(self) -> int:
        return self._m.shape[0]

    def __getitem__(self, idx: Tuple[int, int]) -> int:
        return int(self._m[idx])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CommPattern) and np.array_equal(
            self._m, other._m
        )

    def __hash__(self) -> int:
        return hash((self._m.shape[0], self._m.tobytes()))

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"CommPattern(nprocs={s.nprocs}, density={s.density_percent:.1f}%, "
            f"avg_bytes={s.avg_bytes_per_op:.0f})"
        )

    # ------------------------------------------------------------------
    # Statistics (Table 12's header row)
    # ------------------------------------------------------------------
    def operations(self) -> Iterator[Tuple[int, int, int]]:
        """Yield every required transfer as ``(src, dst, nbytes)``."""
        src_idx, dst_idx = np.nonzero(self._m)
        for i, j in zip(src_idx.tolist(), dst_idx.tolist()):
            yield i, j, int(self._m[i, j])

    def operations_not_in(self, src: np.ndarray, dst: np.ndarray) -> Iterator:
        """The :meth:`operations` that no ``(src[k], dst[k])`` names."""
        left = self._m != 0
        left[src, dst] = False
        i, j = np.nonzero(left)
        return zip(i.tolist(), j.tolist(), self._m[i, j].tolist())

    @property
    def n_operations(self) -> int:
        return int(np.count_nonzero(self._m))

    @property
    def total_bytes(self) -> int:
        return int(self._m.sum())

    @property
    def density(self) -> float:
        """Fraction of off-diagonal slots used (1.0 = complete exchange)."""
        n = self.nprocs
        return self.n_operations / (n * (n - 1))

    @property
    def avg_bytes_per_op(self) -> float:
        """Average bytes per communication operation (paper Table 12)."""
        ops = self.n_operations
        return self.total_bytes / ops if ops else 0.0

    def stats(self) -> _PatternStats:
        return _PatternStats(
            nprocs=self.nprocs,
            density_percent=100.0 * self.density,
            total_bytes=self.total_bytes,
            n_operations=self.n_operations,
            avg_bytes_per_op=self.avg_bytes_per_op,
        )

    # ------------------------------------------------------------------
    # Predicates / transforms
    # ------------------------------------------------------------------
    @property
    def is_complete_exchange(self) -> bool:
        off = self._m[~np.eye(self.nprocs, dtype=bool)]
        return bool(off.size and (off == off[0]).all() and off[0] > 0)

    @property
    def is_symmetric(self) -> bool:
        """True when i->j and j->i always carry equal byte counts."""
        return bool(np.array_equal(self._m, self._m.T))

    def symmetrized(self) -> "CommPattern":
        """Pattern with both directions carrying the pairwise max."""
        return CommPattern(np.maximum(self._m, self._m.T))

    def scaled(self, factor: float) -> "CommPattern":
        """Pattern with every entry scaled (rounded) by ``factor``."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return CommPattern(np.rint(self._m * factor).astype(np.int64))

    def sends_of(self, rank: int) -> List[Tuple[int, int]]:
        """``(dst, nbytes)`` list for one sender, ascending destination."""
        row = self._m[rank]
        return [(j, int(row[j])) for j in np.nonzero(row)[0].tolist()]

    def recvs_of(self, rank: int) -> List[Tuple[int, int]]:
        """``(src, nbytes)`` list for one receiver, ascending source."""
        col = self._m[:, rank]
        return [(i, int(col[i])) for i in np.nonzero(col)[0].tolist()]


def paper_pattern_P() -> CommPattern:
    """The 8-processor example pattern 'P' of the paper's Table 6.

    Entries are message *counts* in the paper's illustration; we keep
    them as (unit) byte counts so the schedule tables 7-10 reproduce
    entry-for-entry.
    """
    return CommPattern(
        [
            [0, 1, 0, 1, 0, 1, 1, 0],
            [1, 0, 1, 0, 1, 1, 1, 1],
            [0, 1, 0, 1, 0, 0, 0, 0],
            [1, 0, 1, 0, 1, 1, 1, 0],
            [0, 1, 1, 1, 0, 1, 0, 1],
            [0, 1, 0, 0, 1, 0, 1, 0],
            [1, 0, 1, 1, 0, 1, 0, 1],
            [1, 1, 0, 0, 1, 0, 1, 0],
        ]
    )
