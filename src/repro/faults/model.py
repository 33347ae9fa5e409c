"""Runtime interpreter of a :class:`FaultPlan` for one simulation.

The engine asks this object four questions, all O(1) after construction:

* :meth:`link_scale_vector` — per-link capacity multipliers for the
  fluid network's max-min allocation;
* :meth:`compute_slowdowns` / :meth:`overhead_slowdowns` — per-rank
  multipliers on local work and per-message software overheads;
* :meth:`message_delay` — extra wire latency for one delivery attempt;
* :meth:`message_drop` — whether one delivery attempt is lost (and how
  long after the drain the sender's timeout fires).

Per-message decisions are *hashed*, not drawn from a shared stream: each
``(plan seed, fault kind, src, dst, attempt)`` tuple seeds its own tiny
generator.  Decisions therefore do not depend on the order in which the
engine processes events, which is what makes fault runs replayable and
lets :func:`repro.schedules.repair.repair_schedule` reason about a plan
without simulating it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..machine.fattree import FatTree, LinkId
from ..machine.params import FAT_TREE_ARITY
from .plan import (
    HEALTHY,
    FaultPlan,
    LinkDegrade,
    MessageDelay,
    MessageDrop,
    NodeFailure,
    NodeStraggler,
)

__all__ = ["FaultModel"]

#: Salt constants separating the hash streams of the two message faults.
_SALT_DROP = 0x5D
_SALT_DELAY = 0x1E


def _decision(seed: int, salt: int, src: int, dst: int, attempt: int) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments."""
    return float(
        np.random.default_rng((seed, salt, src, dst, attempt)).random()
    )


class FaultModel:
    """A :class:`FaultPlan` bound to one machine (fat tree + rank count)."""

    def __init__(self, plan: Optional[FaultPlan], tree: FatTree):
        self.plan = plan or HEALTHY
        self.tree = tree
        nprocs = tree.nprocs
        self._compute_slow = np.ones(nprocs)
        self._overhead_slow = np.ones(nprocs)
        for f in self.plan.of_kind(NodeStraggler):
            if f.rank >= nprocs:
                continue  # plan reused across machine-size sweeps
            self._compute_slow[f.rank] *= f.factor
            self._overhead_slow[f.rank] *= f.overhead_factor
        self._link_scales = self._build_link_scales()
        self._drops: Tuple[MessageDrop, ...] = self.plan.of_kind(MessageDrop)  # type: ignore[assignment]
        self._delays: Tuple[MessageDelay, ...] = self.plan.of_kind(MessageDelay)  # type: ignore[assignment]
        self.has_message_faults = bool(self._drops or self._delays)
        self._failures: Dict[int, Tuple[float, float]] = {}
        for f in self.plan.of_kind(NodeFailure):
            if f.rank >= nprocs:
                continue
            prev = self._failures.get(f.rank)
            if prev is None or f.at < prev[0]:
                self._failures[f.rank] = (f.at, f.detect_seconds)

    # ------------------------------------------------------------------
    # Link degradation
    # ------------------------------------------------------------------
    def _build_link_scales(self) -> Dict[LinkId, float]:
        scales: Dict[LinkId, float] = {}
        links = self.tree.links
        for f in self.plan.of_kind(LinkDegrade):
            kinds = ("up", "down") if f.direction == "both" else (f.direction,)
            for kind in kinds:
                link_id: LinkId = (kind, f.level, f.index)
                if link_id in links:
                    scales[link_id] = scales.get(link_id, 1.0) * f.factor
        return scales

    @property
    def link_scales(self) -> Dict[LinkId, float]:
        """Capacity multipliers of the degraded links (others are 1.0)."""
        return dict(self._link_scales)

    def link_scale_vector(self, link_order: Sequence[LinkId]) -> Optional[np.ndarray]:
        """Multipliers aligned with ``link_order``; None when healthy."""
        if not self._link_scales:
            return None
        return np.array(
            [self._link_scales.get(l, 1.0) for l in link_order], dtype=float
        )

    def path_degradation(self, src: Any, dst: Any) -> np.ndarray:
        """Worst capacity scale along each (src, dst) route, elementwise
        over rank arrays (1.0 = healthy; ranks unchecked): the route to
        level ``top`` climbs ``src``'s up links and descends ``dst``'s
        down links, levels 1 to ``top``.

        Used by :func:`~repro.schedules.repair.repair_schedule` to score
        steps without running the simulator.
        """
        worst = np.ones(np.shape(src))
        if not self._link_scales:
            return worst
        top = self.tree.config.route_levels(src, dst)
        for (kind, level, index), scale in self._link_scales.items():
            ends = src if kind == "up" else dst
            on = (top >= level) & (ends // FAT_TREE_ARITY ** (level - 1) == index)
            worst = np.where(on, np.minimum(worst, scale), worst)
        return worst

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def compute_slowdowns(self) -> np.ndarray:
        """Per-rank multipliers on local work (compute, pack/unpack)."""
        return self._compute_slow

    def overhead_slowdowns(self) -> np.ndarray:
        """Per-rank multipliers on per-message software overheads."""
        return self._overhead_slow

    # ------------------------------------------------------------------
    # Node failures
    # ------------------------------------------------------------------
    def failure_times(self) -> Dict[int, Tuple[float, float]]:
        """``{rank: (at, detect_seconds)}``, earliest failure per rank."""
        return dict(self._failures)

    # ------------------------------------------------------------------
    # Per-message faults
    # ------------------------------------------------------------------
    @staticmethod
    def _applies(f, src: int, dst: int) -> bool:
        return (f.src is None or f.src == src) and (f.dst is None or f.dst == dst)

    def message_delay(self, src: int, dst: int, attempt: int) -> float:
        """Extra wire latency for this delivery attempt (0.0 = none)."""
        extra = 0.0
        for i, f in enumerate(self._delays):
            if not self._applies(f, src, dst) or f.probability == 0.0:
                continue
            if _decision(self.plan.seed, _SALT_DELAY + i, src, dst, attempt) < f.probability:
                # One count per *triggered fault*, not per message, so
                # stacked delay faults are individually attributable.
                obs.count("faults.delays")
                obs.observe("faults.delay_seconds", f.seconds)
                extra += f.seconds
        return extra

    def message_drop(self, src: int, dst: int, attempt: int) -> Optional[float]:
        """Loss decision for this delivery attempt.

        Returns ``None`` for a clean delivery, or the sender's timeout
        (seconds after the wire drains) when the message is lost.
        ``attempt`` counts delivery attempts of the same logical message;
        attempts past a fault's ``max_consecutive`` are never dropped.
        """
        for i, f in enumerate(self._drops):
            if not self._applies(f, src, dst) or f.probability == 0.0:
                continue
            if attempt >= f.max_consecutive:
                continue
            if _decision(self.plan.seed, _SALT_DROP + i, src, dst, attempt) < f.probability:
                obs.count("faults.drops")
                return f.detect_seconds
        return None
