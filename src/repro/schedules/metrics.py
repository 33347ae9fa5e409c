"""Schedule metrics: step counts, locality balance, root traffic.

These quantify the *mechanism* claims in the paper:

* Section 3.4: PEX concentrates its global (inter-cluster) exchanges —
  on N >= 16 processors, 3N/4 of its N-1 steps are entirely global while
  N/4 are entirely local; BEX spreads the same 3N/4 * N/2 global
  exchange pairs evenly across all N-1 steps.
* Section 4.4: GS finishes sparse patterns in fewer steps than the fixed
  pairings, but can exceed N-1 steps at high density.

The ablation benchmarks report these numbers alongside the measured
times so the causal story is visible, not just the ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..machine.params import MachineConfig
from .schedule import Schedule

__all__ = ["StepLocality", "ScheduleMetrics", "analyze"]


@dataclass(frozen=True)
class StepLocality:
    """Locality breakdown of one step."""

    step: int
    n_transfers: int
    n_local: int  # stays inside a 4-node cluster
    n_global: int  # crosses cluster boundary
    bytes_local: int
    bytes_global: int
    #: Bytes whose route crosses the partition's top fat-tree level.
    bytes_through_root: int


@dataclass(frozen=True)
class ScheduleMetrics:
    """Whole-schedule summary."""

    name: str
    nprocs: int
    nsteps: int
    n_messages: int
    total_bytes: int
    per_step: List[StepLocality]
    #: Participant sets per step (senders + receivers), for idle metrics.
    #: Defaults to empty (no participant data: the idle metrics report
    #: zero idle slots) rather than ``None``, which made ``idle_slots``
    #: and ``utilization`` crash with a ``TypeError`` when the dataclass
    #: was constructed directly.
    _participants: Sequence[frozenset] = ()

    @property
    def global_counts(self) -> np.ndarray:
        return np.array([s.n_global for s in self.per_step])

    @property
    def root_bytes_per_step(self) -> np.ndarray:
        return np.array([s.bytes_through_root for s in self.per_step])

    @property
    def global_balance(self) -> float:
        """Coefficient of variation of per-step global-transfer counts.

        0 means perfectly even global traffic (BEX's goal); PEX's
        all-local/all-global step blocks give a large value.
        """
        counts = self.global_counts.astype(float)
        mean = counts.mean() if len(counts) else 0.0
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)

    @property
    def peak_root_bytes(self) -> int:
        arr = self.root_bytes_per_step
        return int(arr.max()) if len(arr) else 0

    @property
    def n_global_total(self) -> int:
        return int(self.global_counts.sum())

    @property
    def idle_slots(self) -> int:
        """Processor-steps spent idle (Section 4: a processor with no
        entry in the step's pairing "remains idle in that step").

        LS/PS/BS leave slots empty whenever the fixed pairing assigns a
        pair nothing to say; GS's whole point is packing these slots.
        """
        return sum(self.nprocs - len(s_participants) for s_participants in self._participants)

    @property
    def utilization(self) -> float:
        """Fraction of processor-steps that carry communication."""
        total = self.nprocs * self.nsteps
        return 1.0 - self.idle_slots / total if total else 1.0


def analyze(schedule: Schedule, config: MachineConfig) -> ScheduleMetrics:
    """Compute locality metrics of ``schedule`` on ``config``'s fat tree."""
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    top = config.levels
    nsteps = schedule.nsteps
    step, src, dst, nbytes = schedule.columns[:4]
    level = config.route_levels(src, dst)

    def per_step(rows: np.ndarray, weights: np.ndarray) -> List[int]:
        out = np.zeros(nsteps, dtype=np.int64)
        np.add.at(out, step[rows], weights[rows])
        return out.tolist()

    local, ones = level == 1, np.ones_like(nbytes)
    n_local, n_global = per_step(local, ones), per_step(~local, ones)
    b_local, b_global = per_step(local, nbytes), per_step(~local, nbytes)
    b_root = per_step((level >= top) & (top > 1), nbytes)
    bounds = np.searchsorted(step, np.arange(nsteps + 1)).tolist()
    ranks = np.stack((src, dst), axis=1).ravel().tolist()
    participants = [
        frozenset(ranks[2 * lo : 2 * hi]) for lo, hi in zip(bounds, bounds[1:])
    ]
    return ScheduleMetrics(
        name=schedule.name,
        nprocs=schedule.nprocs,
        nsteps=nsteps,
        n_messages=schedule.n_messages,
        total_bytes=schedule.total_bytes,
        per_step=[
            StepLocality(i + 1, nl + ng, nl, ng, bl, bg, br)
            for i, (nl, ng, bl, bg, br) in enumerate(
                zip(n_local, n_global, b_local, b_global, b_root)
            )
        ],
        _participants=participants,
    )
