"""Processor-mesh (grid) communication: rows, columns, grid transpose.

Section 3.6's motivation for user-level broadcast trees: "selective
broadcasting is sometimes necessary, for instance, when processors are
configured as a mesh and broadcast along a row or a column is required"
— the CMMD system broadcast cannot address a subgroup.  This module
provides the logical-mesh machinery those applications use:

* :class:`ProcessorMesh` — an ``R x C`` view of a partition with
  row/column rank lists,
* row/column recursive broadcasts (REB restricted to a mesh line),
* row/column complete exchanges (any of the paper's four algorithms,
  run concurrently in every line),
* the grid transpose permutation (rank (i, j) -> rank (j, i)).

All results are ordinary :class:`Schedule` objects for the standard
executor; line-local schedules from different rows compose into single
steps, so an all-rows exchange really is concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .broadcast import recursive_broadcast
from .schedule import LOWER_RECV_FIRST, Schedule, transfer_columns

__all__ = ["ProcessorMesh"]


@dataclass(frozen=True)
class ProcessorMesh:
    """A logical ``rows x cols`` arrangement of ranks (row-major)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"bad mesh shape {self.rows}x{self.cols}")

    @property
    def nprocs(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------
    def rank_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"coordinate ({i}, {j}) outside the mesh")
        return i * self.cols + j

    def coords_of(self, rank: int) -> Tuple[int, int]:
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} outside the mesh")
        return divmod(rank, self.cols)

    def row_ranks(self, i: int) -> List[int]:
        return [self.rank_of(i, j) for j in range(self.cols)]

    def col_ranks(self, j: int) -> List[int]:
        return [self.rank_of(i, j) for i in range(self.rows)]

    # ------------------------------------------------------------------
    # Selective broadcasts (Section 3.6's motivating use case)
    # ------------------------------------------------------------------
    def row_broadcast(self, i: int, root_col: int, nbytes: int) -> Schedule:
        """REB along row ``i`` from the member in column ``root_col``."""
        group = self.row_ranks(i)
        sched = recursive_broadcast(
            self.nprocs, self.rank_of(i, root_col), nbytes, group=group
        )
        return Schedule.from_columns(
            self.nprocs, sched.columns, f"ROWBCAST[{i}]", nsteps=sched.nsteps
        )

    def col_broadcast(self, j: int, root_row: int, nbytes: int) -> Schedule:
        """REB along column ``j`` from the member in row ``root_row``."""
        group = self.col_ranks(j)
        sched = recursive_broadcast(
            self.nprocs, self.rank_of(root_row, j), nbytes, group=group
        )
        return Schedule.from_columns(
            self.nprocs, sched.columns, f"COLBCAST[{j}]", nsteps=sched.nsteps
        )

    # ------------------------------------------------------------------
    # Concurrent line exchanges
    # ------------------------------------------------------------------
    def _line_exchange(
        self, lines: Sequence[List[int]], nbytes: int, name: str
    ) -> Schedule:
        """Pairwise exchange inside every line simultaneously."""
        size = len(lines[0])
        if size & (size - 1):
            raise ValueError(f"line length must be a power of two, got {size}")
        # Step j - 1 pairs line position a with a ^ j, in every line:
        # lines in order, each pair lo < hi as lo -> hi, then hi -> lo.
        pos = np.arange(size)
        upward = pos < pos ^ np.arange(1, size)[:, None]  # (step, position)
        step, line, lo = np.nonzero(
            np.broadcast_to(upward[:, None], (size - 1, len(lines), size))
        )
        members = np.array(lines, dtype=np.int64)
        a, b = members[line, lo], members[line, lo ^ (step + 1)]
        return Schedule.from_columns(
            self.nprocs,
            transfer_columns(
                np.repeat(step, 2),
                np.stack((a, b), axis=1).ravel(),
                np.stack((b, a), axis=1).ravel(),
                nbytes,
            ),
            name=name,
            exchange_order=LOWER_RECV_FIRST,
            nsteps=size - 1,
        )

    def row_exchange(self, nbytes: int) -> Schedule:
        """Complete exchange within every row, all rows concurrent."""
        return self._line_exchange(
            [self.row_ranks(i) for i in range(self.rows)], nbytes, "ROWXCHG"
        )

    def col_exchange(self, nbytes: int) -> Schedule:
        """Complete exchange within every column, all columns concurrent."""
        return self._line_exchange(
            [self.col_ranks(j) for j in range(self.cols)], nbytes, "COLXCHG"
        )

    # ------------------------------------------------------------------
    def transpose_permutation(self, nbytes: int) -> Schedule:
        """Grid transpose: rank (i, j) sends its block to rank (j, i).

        Requires a square mesh.  Off-diagonal ranks pair up into
        exchanges; diagonal ranks keep their block locally.  One step.
        """
        if self.rows != self.cols:
            raise ValueError("grid transpose needs a square mesh")
        i, j = np.nonzero(~np.eye(self.rows, dtype=bool))
        return Schedule.from_columns(
            self.nprocs,
            transfer_columns(0, i * self.cols + j, j * self.cols + i, nbytes),
            name="GRIDT",
            exchange_order=LOWER_RECV_FIRST,
            nsteps=1,
        )

