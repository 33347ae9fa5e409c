"""Adaptive mid-execution rescheduling with degraded-mode completion.

The static executor commits a schedule's step order before the run; a
straggler or brownout discovered at step 3 of 31 then convoys steps
4–31.  :func:`adaptive_execute` replaces the committed order with an
**append-only dispatch order** grown while the run executes:

* Every rank executes, in dispatch order, exactly the dispatched steps
  it participates in — each step's ops read from the static executor's
  compiled program (:func:`~repro.schedules.executor.compiled_program`),
  so each step keeps its Figure 2/3 deadlock-freedom argument.
* A rank with no dispatched work left *pulls*: the planner re-scores
  the remaining steps with
  :func:`~repro.schedules.repair.step_cost_estimate` under the
  :class:`~repro.resilience.monitor.HealthMonitor`'s inferred fault
  model (re-ranking whenever the monitor's generation moved) and
  appends the puller's most fault-impacted remaining step.  Work is
  conserved — a slow rank starts its own heavy steps immediately
  instead of idling until the static order reaches them — and the
  monitor's online inferences steer *which* step is pulled first.
* Deadlock-freedom across steps: consider the earliest incomplete
  dispatched step.  All earlier dispatched steps are complete, so each
  of its unfinished participants has it as their next containing step
  and engages; within the step the static orderings guarantee progress.

Under a :class:`~repro.faults.NodeFailure` the engine resolves every
rendezvous with the dead rank through the ``DROPPED`` path; the rank
programs here consult the planner's death set (fed by the engine's
``on_death`` hook), abandon transfers with dead peers, and record the
outcome in a :class:`DeliveryManifest` — the run terminates with every
pattern byte accounted as delivered, dropped-with-cause, or addressed
to a dead rank.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..cmmd.api import Comm, RetryPolicy
from ..faults.plan import FaultPlan
from ..machine.params import MachineConfig
from ..schedules.executor import SEND, compiled_program
from ..schedules.repair import rank_steps
from ..schedules.schedule import Schedule, ScheduleError
from ..sim.engine import Engine, SimResult
from ..sim.process import DROPPED, RankProgram
from .monitor import HealthMonitor, MonitorTracer

__all__ = [
    "TransferOutcome",
    "DeliveryManifest",
    "AdaptivePlanner",
    "AdaptiveResult",
    "adaptive_execute",
]

#: Retry budget for adaptive sends — above the fault layer's
#: ``max_consecutive`` cap so live-live pairs never exhaust it.
ADAPTIVE_RETRY_POLICY = RetryPolicy(max_retries=12)


@dataclass
class TransferOutcome:
    """Final fate of one pattern transfer."""

    step: int
    src: int
    dst: int
    nbytes: int
    #: ``pending`` | ``delivered`` | ``dead_src`` | ``dead_dst`` | ``lost``
    status: str = "pending"


class DeliveryManifest:
    """Byte-exact accounting of every transfer in one schedule run.

    The invariant a chaos run checks: after :meth:`finalize`, no
    transfer is ``pending`` and the ``delivered`` byte total matches the
    trace's delivered-bytes counter — conservation among survivors.
    """

    def __init__(self, schedule: Schedule):
        self._outcomes: Dict[Tuple[int, int, int], TransferOutcome] = {
            (sid, src, dst): TransferOutcome(sid, src, dst, nbytes)
            for sid, src, dst, nbytes in zip(*schedule.columns[:4].tolist())
        }

    def mark(self, step: int, src: int, dst: int, status: str) -> None:
        oc = self._outcomes[(step, src, dst)]
        if oc.status == "pending":  # first final status wins
            oc.status = status

    def finalize(self, dead: Set[int]) -> None:
        """Resolve transfers never reached because an endpoint died."""
        for oc in self._outcomes.values():
            if oc.status == "pending":
                if oc.src in dead:
                    oc.status = "dead_src"
                elif oc.dst in dead:
                    oc.status = "dead_dst"

    # ------------------------------------------------------------------
    def outcomes(self) -> List[TransferOutcome]:
        return [self._outcomes[k] for k in sorted(self._outcomes)]

    def bytes_by_status(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for oc in self._outcomes.values():
            out[oc.status] = out.get(oc.status, 0) + oc.nbytes
        return out

    @property
    def total_bytes(self) -> int:
        return sum(oc.nbytes for oc in self._outcomes.values())

    @property
    def delivered_bytes(self) -> int:
        return self.bytes_by_status().get("delivered", 0)

    @property
    def complete(self) -> bool:
        """Every byte accounted: nothing is still ``pending``."""
        return all(oc.status != "pending" for oc in self._outcomes.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_bytes": self.total_bytes,
            "bytes": self.bytes_by_status(),
            "transfers": [
                {
                    "step": oc.step,
                    "src": oc.src,
                    "dst": oc.dst,
                    "nbytes": oc.nbytes,
                    "status": oc.status,
                }
                for oc in self.outcomes()
            ],
        }


class AdaptivePlanner:
    """Shared append-only dispatch order over one schedule's steps.

    Step ids are the *original* step indices, which double as message
    tags, so rendezvous matching is immune to the reordering.
    """

    def __init__(
        self,
        schedule: Schedule,
        config: MachineConfig,
        monitor: HealthMonitor,
    ):
        program = compiled_program(schedule)
        if program.copies:
            raise ScheduleError(
                f"{schedule.name}: store-and-forward schedules carry "
                "inter-step data dependencies and cannot be re-sequenced"
            )
        self.schedule = schedule
        self.program = program
        self.config = config
        self.monitor = monitor
        step, src, dst = schedule.columns[:3]
        takes_part = np.zeros((schedule.nsteps, schedule.nprocs), dtype=bool)
        takes_part[step, src] = takes_part[step, dst] = True
        self.takes_part = takes_part.tolist()  # [sid][rank]: rank is in step sid
        self.dispatched: List[int] = []
        self._remaining: Set[int] = set(range(schedule.nsteps))
        self._ranked: List[int] = []
        self._ranked_gen = -1  # force the first ranking
        #: Number of times the remaining steps were re-ranked because
        #: the monitor's inference moved (reporting/tests).
        self.rerank_count = -1

    def is_dead(self, rank: int) -> bool:
        return rank in self.monitor.dead

    # ------------------------------------------------------------------
    def _ensure_ranking(self) -> None:
        if self._ranked_gen == self.monitor.generation:
            return
        remaining = np.array(sorted(self._remaining), dtype=np.int64)
        cols = self.schedule.columns
        left = cols[:, np.isin(cols[0], remaining)]
        left[0] = np.searchsorted(remaining, left[0])  # relabelled 0..k-1
        order = rank_steps(
            left, remaining.size, self.config, self.monitor.inferred_model()
        )
        self._ranked = remaining[order].tolist()
        self._ranked_gen = self.monitor.generation
        self.rerank_count += 1

    def _dispatch(self, sid: int) -> None:
        self._remaining.discard(sid)
        self._ranked = [s for s in self._ranked if s != sid]
        self.dispatched.append(sid)

    def next_for(self, rank: int, pos: int) -> Tuple[str, int, int]:
        """This rank's next step at or after dispatch position ``pos``.

        Returns ``("step", next_pos, step_id)`` or ``("done", pos, -1)``.
        When the dispatched prefix holds nothing for the rank, its most
        fault-impacted remaining step (under the current inference) is
        appended — the pull that makes the order adaptive.
        """
        while True:
            d = self.dispatched
            while pos < len(d):
                sid = d[pos]
                pos += 1
                if self.takes_part[sid][rank]:
                    return ("step", pos, sid)
            self._ensure_ranking()
            picked = next(
                (s for s in self._ranked if self.takes_part[s][rank]),
                None,
            )
            if picked is None:
                return ("done", pos, -1)
            self._dispatch(picked)
            # loop: re-scan from pos (the pulled step is at the tail)


def _adaptive_program(
    comm: Comm,
    planner: AdaptivePlanner,
    manifest: DeliveryManifest,
    policy: RetryPolicy,
) -> RankProgram:
    """One rank's program: execute dispatched steps, pull when starved.

    Step ``sid``'s ops are the rows of the rank's compiled program whose
    tag is ``sid``.  With no memcpy ``DELAY`` rows (store-and-forward
    schedules are rejected) the tags never decrease, so two binary
    searches find them.
    """
    rank = comm.rank
    program = planner.program
    ops = program.ops[program.starts[rank] : program.starts[rank + 1]].tolist()
    tags = [op[2] for op in ops]
    sizes = program.sizes
    pos = 0
    while True:
        kind, pos, sid = planner.next_for(rank, pos)
        if kind == "done":
            return
        lo, hi = bisect_left(tags, sid), bisect_left(tags, sid + 1)
        for op, peer, _, index in ops[lo:hi]:
            if op == SEND:
                if planner.is_dead(peer):
                    manifest.mark(sid, rank, peer, "dead_dst")
                    continue
                attempt = 0
                while True:
                    outcome = yield comm.send(peer, sizes[index], tag=sid)
                    if outcome is not DROPPED:
                        manifest.mark(sid, rank, peer, "delivered")
                        break
                    if planner.is_dead(peer):
                        manifest.mark(sid, rank, peer, "dead_dst")
                        break
                    if attempt >= policy.max_retries:
                        manifest.mark(sid, rank, peer, "lost")
                        break
                    yield comm.delay(policy.backoff(attempt))
                    attempt += 1
            else:
                if planner.is_dead(peer):
                    manifest.mark(sid, peer, rank, "dead_src")
                    continue
                got = yield comm.recv(peer, tag=sid)
                # Only a dead source resolves a receive with DROPPED.
                status = "dead_src" if got is DROPPED else "delivered"
                manifest.mark(sid, peer, rank, status)


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of one adaptive execution."""

    schedule_name: str
    nprocs: int
    time: float
    sim: SimResult
    manifest: DeliveryManifest
    monitor: HealthMonitor
    #: Step ids in the order they were dispatched.
    dispatch_order: Tuple[int, ...]
    #: How many times the remaining steps were re-ranked mid-run.
    rerank_count: int = 0

    @property
    def time_ms(self) -> float:
        return self.time * 1e3

    def __repr__(self) -> str:
        return (
            f"AdaptiveResult({self.schedule_name}, nprocs={self.nprocs}, "
            f"time={self.time_ms:.3f} ms, reranks={self.rerank_count})"
        )


def adaptive_execute(
    schedule: Schedule,
    config: MachineConfig,
    *,
    faults: Optional[FaultPlan] = None,
    declared: Optional[FaultPlan] = None,
    monitor: Optional[HealthMonitor] = None,
    seed: int = 0,
    trace: bool = True,
    max_trace_records: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> AdaptiveResult:
    """Run ``schedule`` with online rescheduling and failure survival.

    ``faults`` is the plan actually injected into the engine (the
    ground truth); ``declared`` is the subset the scheduler knew in
    advance (default: nothing — detection is the point).  A custom
    ``monitor`` may be passed for threshold tuning; it must have been
    built for ``config`` and ``declared``.
    """
    if schedule.nprocs != config.nprocs:
        raise ScheduleError(
            f"{schedule.name}: schedule is for {schedule.nprocs} procs, "
            f"machine has {config.nprocs}"
        )
    from .. import obs

    if monitor is None:
        monitor = HealthMonitor(config, declared)
    planner = AdaptivePlanner(schedule, config, monitor)
    manifest = DeliveryManifest(schedule)
    policy = retry_policy or ADAPTIVE_RETRY_POLICY
    tracer = MonitorTracer(monitor)
    with obs.span(f"execute/{schedule.name}+adaptive", category="execute"):
        engine = Engine(
            config,
            trace=trace,
            seed=seed,
            faults=faults,
            max_trace_records=max_trace_records,
            tracer=tracer,
        )
        engine.on_death = monitor.on_death
        programs = [
            _adaptive_program(
                Comm(rank=r, config=config), planner, manifest, policy
            )
            for r in range(config.nprocs)
        ]
        sim = engine.run(programs)
    manifest.finalize(monitor.dead)
    tracer.meta["algorithm"] = f"{schedule.name}+adaptive"
    return AdaptiveResult(
        schedule_name=f"{schedule.name}+adaptive",
        nprocs=config.nprocs,
        time=sim.makespan,
        sim=sim,
        manifest=manifest,
        monitor=monitor,
        dispatch_order=tuple(planner.dispatched),
        rerank_count=max(planner.rerank_count, 0),
    )
