"""Online health estimation from the observability layer's op records.

The discrete-event engine emits one :class:`~repro.obs.span.OpRecord`
per blocking request, with message completions carrying a *cause* dict
naming the rendezvous timestamps.  Those records contain enough signal
to reconstruct, while the run is still going, the effective machine the
run is experiencing:

* **per-rank overhead slowdown** — a send op's rendezvous post trails
  the op start by ``send_setup * overhead_slow[src]``, so one completed
  send measures its sender's software-overhead factor exactly;
* **per-rank compute slowdown** — a delay op's duration over its
  requested seconds is the rank's compute factor (the engine stretches
  Delay by it);
* **per-link capacity scale** — a message's drain rate over its
  route's healthy uncontended rate bounds the scale of every link on
  its path; keeping the *max* ratio per link separates a genuinely
  degraded link (every message through it is slow) from transient
  contention (some message through the link runs at full rate);
* **dead ranks** — reported by the engine's ``on_death`` hook.

The monitor turns flagged estimates into an *inferred*
:class:`~repro.faults.FaultPlan` merged over the declared one, and bumps
``generation`` whenever the inference changes — the adaptive executor
re-ranks its remaining steps exactly then.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..faults.model import FaultModel
from ..faults.plan import FaultPlan, LinkDegrade, NodeStraggler
from ..machine.fattree import FatTree, LinkId, fat_tree_for
from ..machine.node import NodeCostModel
from ..machine.params import MachineConfig, wire_bytes
from ..obs.span import OpRecord, Tracer

__all__ = ["HealthMonitor", "MonitorTracer"]


def _median(xs: List[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


class HealthMonitor:
    """Estimates the effective machine from completed op records.

    ``declared`` is the fault plan the scheduler knew in advance (what a
    static repair would have used); the monitor's job is to surface what
    the run *experiences* beyond it.  Feed it through
    :class:`MonitorTracer` (every completed op) and the engine's
    ``on_death`` hook.
    """

    def __init__(
        self,
        config: MachineConfig,
        declared: Optional[FaultPlan] = None,
        *,
        slowdown_threshold: float = 1.5,
        link_threshold: float = 0.7,
        link_min_samples: int = 3,
    ):
        self.config = config
        self.tree: FatTree = fat_tree_for(config)
        self.declared = declared or FaultPlan()
        self.costs = NodeCostModel(config.params)
        self.slowdown_threshold = slowdown_threshold
        self.link_threshold = link_threshold
        self.link_min_samples = link_min_samples
        #: Bumped whenever the inferred fault set changes.
        self.generation = 0
        self.dead: Set[int] = set()
        self._compute_samples: Dict[int, List[float]] = {}
        self._overhead_samples: Dict[int, List[float]] = {}
        #: Per-link (max observed rate ratio, sample count).
        self._link_best: Dict[LinkId, float] = {}
        self._link_count: Dict[LinkId, int] = {}
        self._flagged_stragglers: Dict[int, Tuple[float, float]] = {}
        self._flagged_links: Dict[LinkId, float] = {}
        self._plan_cache: Optional[FaultPlan] = None
        self._declared_slow: Dict[int, Tuple[float, float]] = {}
        for f in self.declared.stragglers:
            prev = self._declared_slow.get(f.rank, (1.0, 1.0))
            self._declared_slow[f.rank] = (
                prev[0] * f.factor,
                prev[1] * f.overhead_factor,
            )

    # ------------------------------------------------------------------
    # Observation intake
    # ------------------------------------------------------------------
    def observe_op(self, op: OpRecord) -> None:
        """Digest one completed rank op (called by :class:`MonitorTracer`)."""
        if op.kind == "delay":
            self._observe_delay(op)
        elif op.cause is not None and op.cause.get("kind") == "message":
            self._observe_message(op)

    def _observe_delay(self, op: OpRecord) -> None:
        # detail is f"{requested_seconds:.3e}s" (engine's _trace_op_begin)
        if not op.detail.endswith("s"):
            return
        try:
            requested = float(op.detail[:-1])
        except ValueError:
            return
        if requested <= 0:
            return
        ratio = op.duration / requested
        self._compute_samples.setdefault(op.rank, []).append(ratio)
        self._reflag_rank(op.rank)

    def _observe_message(self, op: OpRecord) -> None:
        cause = op.cause
        src, dst = cause["src"], cause["dst"]
        if cause.get("side") == "send":
            setup = self.costs.send_setup()
            # Only blocking sends measure setup (a wait op's start is
            # unrelated to the isend's dispatch instant).
            if op.kind == "send" and setup > 0 and cause["send_posted"] >= op.start:
                ratio = (cause["send_posted"] - op.start) / setup
                self._overhead_samples.setdefault(src, []).append(ratio)
                self._reflag_rank(src)
            # Drain-rate bound on every link of the route.  The drain
            # interval (matched -> delivered on the send side) excludes
            # both endpoints' software time, so the ratio is pure wire.
            drain = cause["delivered_at"] - cause["matched_at"]
            drain -= self.config.params.wire_latency
            wire = wire_bytes(cause["nbytes"])
            if drain > 0 and wire > 0:
                observed = wire / drain
                expected = self.tree.message_rate_cap(src, dst)
                ratio = min(observed / expected, 1.0)
                for link in self.tree.path(src, dst):
                    if ratio > self._link_best.get(link, 0.0):
                        self._link_best[link] = ratio
                    self._link_count[link] = self._link_count.get(link, 0) + 1
                    self._reflag_link(link)

    def on_death(self, rank: int, t: float) -> None:
        """Engine ``on_death`` hook: the rank is gone from now on."""
        if rank not in self.dead:
            self.dead.add(rank)
            self._bump()

    # ------------------------------------------------------------------
    # Flagging
    # ------------------------------------------------------------------
    def _reflag_rank(self, rank: int) -> None:
        compute = _median(self._compute_samples.get(rank, [])) if self._compute_samples.get(rank) else 1.0
        overhead = _median(self._overhead_samples.get(rank, [])) if self._overhead_samples.get(rank) else 1.0
        dc, do = self._declared_slow.get(rank, (1.0, 1.0))
        # Only the *excess* over the declared plan is an inference.
        flag_c = compute if compute > max(dc, 1.0) * self.slowdown_threshold else 1.0
        flag_o = overhead if overhead > max(do, 1.0) * self.slowdown_threshold else 1.0
        if flag_c > 1.0 or flag_o > 1.0:
            entry = (max(flag_c, 1.0), max(flag_o, 1.0))
            if self._flagged_stragglers.get(rank) != entry:
                self._flagged_stragglers[rank] = entry
                self._bump()
        elif rank in self._flagged_stragglers:
            del self._flagged_stragglers[rank]
            self._bump()

    def _reflag_link(self, link: LinkId) -> None:
        best = self._link_best.get(link, 1.0)
        count = self._link_count.get(link, 0)
        if count >= self.link_min_samples and best < self.link_threshold:
            prev = self._flagged_links.get(link)
            # Hysteresis: re-bump only on meaningful estimate moves.
            if prev is None or abs(prev - best) > 0.05:
                self._flagged_links[link] = best
                self._bump()
        elif link in self._flagged_links:
            del self._flagged_links[link]
            self._bump()

    def _bump(self) -> None:
        self.generation += 1
        self._plan_cache = None

    # ------------------------------------------------------------------
    # Inference output
    # ------------------------------------------------------------------
    def flagged_stragglers(self) -> Dict[int, Tuple[float, float]]:
        """``{rank: (compute_factor, overhead_factor)}`` beyond declared."""
        return dict(self._flagged_stragglers)

    def flagged_links(self) -> Dict[LinkId, float]:
        """``{link_id: estimated capacity scale}`` beyond declared."""
        return dict(self._flagged_links)

    def inferred_plan(self) -> FaultPlan:
        """Declared faults plus everything the monitor has flagged.

        Structural faults only (stragglers, link degrades, i.e. what
        :func:`~repro.schedules.repair.step_cost_estimate` prices);
        message-level faults need no rescheduling.  Declared link
        entries are replaced, not stacked, when the monitor has a live
        estimate for the same link (FaultModel multiplies duplicates).
        """
        if self._plan_cache is not None:
            return self._plan_cache
        faults: List = []
        inferred_links = {
            link: max(min(scale, 1.0), 1e-6)
            for link, scale in self._flagged_links.items()
        }
        declared_links: Set[LinkId] = set()
        for f in self.declared.faults:
            if isinstance(f, LinkDegrade):
                kinds = (
                    ("up", "down") if f.direction == "both" else (f.direction,)
                )
                ids = {(k, f.level, f.index) for k in kinds}
                declared_links |= ids
                if ids & set(inferred_links):
                    # The monitor's estimate supersedes; keep the more
                    # pessimistic (smaller) scale.
                    for link in ids:
                        inferred_links[link] = min(
                            inferred_links.get(link, 1.0), f.factor
                        )
                    continue
            faults.append(f)
        for rank, (c, o) in sorted(self._flagged_stragglers.items()):
            faults.append(
                NodeStraggler(
                    rank=rank, factor=max(c, 1.0), overhead_factor=max(o, 1.0)
                )
            )
        for (kind, level, index), scale in sorted(inferred_links.items()):
            faults.append(
                LinkDegrade(
                    level=level, index=index, factor=scale, direction=kind
                )
            )
        self._plan_cache = FaultPlan(
            faults=tuple(faults), seed=self.declared.seed
        )
        return self._plan_cache

    def inferred_model(self) -> FaultModel:
        return FaultModel(self.inferred_plan(), self.tree)

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view of the current inference (reports/tests)."""
        return {
            "generation": self.generation,
            "dead_ranks": sorted(self.dead),
            "stragglers": {
                str(r): {"compute": c, "overhead": o}
                for r, (c, o) in sorted(self._flagged_stragglers.items())
            },
            "links": {
                f"{k}:L{lvl}#{idx}": scale
                for (k, lvl, idx), scale in sorted(self._flagged_links.items())
            },
        }


class MonitorTracer(Tracer):
    """A :class:`~repro.obs.Tracer` that streams completed ops into a
    :class:`HealthMonitor` as the engine closes them — the observation
    half of the adaptive loop, with zero change to record contents."""

    def __init__(self, monitor: HealthMonitor):
        super().__init__()
        self.monitor = monitor

    def op_end(self, rank, t, cause=None) -> None:  # noqa: D102
        had = len(self.rank_ops.get(rank, ()))
        super().op_end(rank, t, cause)
        ops = self.rank_ops.get(rank)
        if ops is not None and len(ops) > had:
            self.monitor.observe_op(ops[-1])
