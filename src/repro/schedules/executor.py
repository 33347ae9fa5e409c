"""Execute a schedule on the simulated CM-5 and measure its time.

The executor translates a :class:`Schedule` into one rank program per
node — reproducing the papers' code structure, including the
deadlock-free orderings of Figures 2 and 3 — and runs them on the
discrete-event engine.  No global barrier separates steps (the CM-5
programs had none): step boundaries emerge from the blocking synchronous
sends, so a lightly-loaded processor can run ahead, exactly as on the
real machine.

Ordering rules inside one step, per rank:

* exchange with a single partner: the schedule's ``exchange_order``
  (PEX/BEX/irregular: lower rank receives first, Figure 2; REX: lower
  rank packs and sends first, Figure 3);
* mixed single send + single receive with *different* partners (greedy
  steps): receive first iff the receive's source has a lower rank —
  provably deadlock-free for the degree-<=1 step graphs GS emits (every
  directed cycle contains both a send-first and a receive-first node,
  so some rendezvous always completes);
* receive-only (the linear family's serialized steps): post receives in
  ascending source order, one at a time.

Pack/unpack bytes on a transfer are charged as local memcpy around the
wire operation (REX's store-and-forward reshuffle).

Every send has :meth:`Comm.reliable_send` semantics — free on a healthy
machine, and under a fault plan with message drops every schedule still
completes via timeout/retry-with-backoff (the retries are visible in the
trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cmmd.api import Comm
from ..cmmd.program import run_spmd
from ..faults.plan import FaultPlan
from ..machine.params import MachineConfig
from ..sim.engine import SimResult
from ..sim.process import DROPPED, RankProgram, Recv, Send
from .schedule import LOWER_SEND_FIRST, Schedule, Transfer

__all__ = [
    "ExecutionResult",
    "execute_schedule",
    "rank_programs",
    "schedule_program",
    "step_actions",
]


@dataclass(frozen=True)
class ExecutionResult:
    """Timing of one schedule execution."""

    schedule_name: str
    nprocs: int
    time: float
    sim: SimResult

    @property
    def time_ms(self) -> float:
        return self.time * 1e3

    def __repr__(self) -> str:
        return (
            f"ExecutionResult({self.schedule_name}, nprocs={self.nprocs}, "
            f"time={self.time_ms:.3f} ms)"
        )


def step_actions(
    rank: int,
    sends: List[Transfer],
    recvs: List[Transfer],
    exchange_order: str,
) -> List[tuple]:
    """Deadlock-free ``("send"|"recv", transfer)`` order for one rank's step.

    This is the ordering core of the executor (the rules in the module
    docstring), shared with the adaptive executor so a re-sequenced run
    keeps the same intra-step deadlock-freedom arguments.  A "send"
    action implies the pack memcpy before the wire op; a "recv" action
    implies the unpack memcpy after it.
    """
    if len(sends) == 1:
        out = sends[0]
        if not recvs:
            return [("send", out)]
        if len(recvs) == 1 and out.dst == recvs[0].src:
            inc = recvs[0]
            # Figure 3 (LOWER_SEND_FIRST): lower rank sends first;
            # Figure 2 (LOWER_RECV_FIRST): lower rank receives first.
            if (rank < out.dst) == (exchange_order == LOWER_SEND_FIRST):
                return [("send", out), ("recv", inc)]
            return [("recv", inc), ("send", out)]
    elif not sends and len(recvs) == 1:
        return [("recv", recvs[0])]
    if sends:
        # Mixed partners (greedy): receive-before-send iff the source
        # outranks us downward; see module docstring.
        early = sorted((r for r in recvs if r.src < rank), key=lambda t: t.src)
        late = sorted((r for r in recvs if r.src > rank), key=lambda t: t.src)
        return (
            [("recv", t) for t in early]
            + [("send", t) for t in sorted(sends, key=lambda t: t.dst)]
            + [("recv", t) for t in late]
        )
    # Linear-family step: the receiver drains sources in order.
    return [("recv", t) for t in sorted(recvs, key=lambda t: t.src)]


#: One blocking rendezvous of a rank program: ``(is_send, step, transfer)``.
Op = Tuple[bool, int, Transfer]


def rank_programs(schedule: Schedule) -> List[List[Op]]:
    """Every rank's blocking program, in :func:`step_actions` order.

    ``rank_programs(schedule)[rank]`` lists the rank's wire operations
    over all steps as flat ``(is_send, step, transfer)`` triples.  Both
    :func:`schedule_program` and the linter's deadlock replay consume
    this one list, so the schedule that is checked is the schedule that
    runs.  Built once per schedule and cached on the frozen object; a
    transfer naming a rank outside ``0..nprocs-1`` has no program seat.
    """
    try:
        return schedule._programs  # type: ignore[attr-defined]
    except AttributeError:
        pass
    nprocs = schedule.nprocs
    order = schedule.exchange_order
    programs: List[List[Op]] = [[] for _ in range(nprocs)]
    for step_idx, step in enumerate(schedule.steps):
        by_rank: Dict[int, Tuple[List[Transfer], List[Transfer]]] = {}
        for t in step.transfers:
            ops = by_rank.get(t.src)
            if ops is None:
                by_rank[t.src] = ([t], [])
            else:
                ops[0].append(t)
            ops = by_rank.get(t.dst)
            if ops is None:
                by_rank[t.dst] = ([], [t])
            else:
                ops[1].append(t)
        for rank, (sends, recvs) in by_rank.items():
            if 0 <= rank < nprocs:
                program = programs[rank]
                for kind, t in step_actions(rank, sends, recvs, order):
                    program.append((kind == "send", step_idx, t))
    object.__setattr__(schedule, "_programs", programs)
    return programs


def schedule_program(
    comm: Comm,
    schedule: Schedule,
    outbox: Optional[Dict[int, Any]] = None,
    inbox: Optional[Dict[int, Any]] = None,
) -> RankProgram:
    """The rank program executing ``schedule`` from ``comm.rank``'s seat.

    ``outbox`` maps destination rank to the payload object attached to
    the corresponding send; received payloads are stored into ``inbox``
    keyed by source rank.  Both default to pure timing (no data moves).
    Store-and-forward schedules (REX) must not use payload mode — their
    wire transfers carry staged aggregates, not per-pair payloads.

    One flat generator walks the rank's :func:`rank_programs` entry; the
    step index doubles as the message tag.  A send reported
    :data:`DROPPED` enters the retry loop of :meth:`Comm.reliable_send`
    (:meth:`Comm.resend_dropped`).
    """
    for is_send, step_idx, t in rank_programs(schedule)[comm.rank]:
        if is_send:
            if t.pack_bytes:
                yield comm.memcpy(t.pack_bytes)
            payload = outbox.get(t.dst) if outbox is not None else None
            if (yield Send(t.dst, t.nbytes, payload, step_idx)) is DROPPED:
                yield from comm.resend_dropped(t.dst, t.nbytes, payload, step_idx)
        else:
            got = yield Recv(t.src, step_idx)
            if t.unpack_bytes:
                yield comm.memcpy(t.unpack_bytes)
            if inbox is not None:
                inbox[t.src] = got


def execute_schedule(
    schedule: Schedule,
    config: MachineConfig,
    trace: bool = False,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    max_trace_records: Optional[int] = None,
    tracer: Optional[Any] = None,
) -> ExecutionResult:
    """Run ``schedule`` on the machine model and return its makespan.

    ``faults`` injects a seeded :class:`~repro.faults.FaultPlan`
    (degraded links, stragglers, message delays/drops); dropped
    messages are repaired transparently by the retry layer and show up
    as retry records in the trace.  ``max_trace_records`` caps retained
    trace lists on large fault sweeps.  ``tracer`` attaches a
    :class:`repro.obs.Tracer` (rank-op timelines, link utilization and
    an ``execute/fluid`` wall span) without perturbing timings.
    """
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    from .. import obs

    effective = tracer if tracer is not None else obs.current()
    with obs.span(f"execute/{schedule.name}", category="execute"):
        sim = run_spmd(
            config,
            schedule_program,
            schedule,
            trace=trace,
            seed=seed,
            faults=faults,
            max_trace_records=max_trace_records,
            tracer=effective,
        )
    if effective is not None:
        effective.meta["algorithm"] = schedule.name
    return ExecutionResult(
        schedule_name=schedule.name,
        nprocs=config.nprocs,
        time=sim.makespan,
        sim=sim,
    )
