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

:func:`compiled_program` compiles these rules once per schedule, from
its int64 step columns, into every rank's program of int64 ops.  The
NumPy compile (one vectorized pass) is the reference and the path
without the compiled kernel; with the kernel loaded, its C twin
``compile_program`` returns the same program bit for bit in one call.
Two paths run that one program.  The generator
path — :func:`schedule_program` on every rank via :func:`run_spmd` — is
the reference, and the only one for fault plans, traces and tracers.  An untraced, fault-free run with
the compiled kernel loaded takes the compiled schedule executor
instead: the same ops interpreted inside the compiled drain loop with
bit-identical timings.  Every schedule is in its scope, since the
:class:`Schedule` constructors admit only in-range ranks, no
self-transfer and no negative byte count.  A run whose ranks do not
all finish there is re-run on the generator path, so a deadlock raises
the reference's :class:`~repro.sim.engine.DeadlockError`.  The adaptive executor
(:mod:`repro.resilience.adaptive`) runs the same ops too, one step at
a time in its own dispatch order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from ..cmmd.api import Comm
from ..cmmd.program import run_spmd
from ..faults.plan import FaultPlan
from ..machine._fastfill import kernel
from ..machine.params import MachineConfig
from ..sim.engine import Engine, SimResult
from ..sim.process import DROPPED, RankProgram, Recv, Send
from .schedule import (
    LOWER_RECV_FIRST,
    Schedule,
    packed_key,
)

__all__ = [
    "ExecutionResult",
    "Program",
    "compiled_program",
    "execute_schedule",
    "schedule_program",
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


#: Op codes of a compiled program (the kernel's OP_SEND, OP_RECV, OP_DELAY).
SEND, RECV, DELAY = 0, 1, 2


class Program(NamedTuple):
    """Every rank's blocking program as int64 ops; see :func:`compiled_program`."""

    #: ``(K, 4)`` rows ``(kind, peer, tag, index)``.  A SEND names its
    #: destination, its step as the tag and its payload size's index in
    #: ``sizes``; a RECV its source and step; a DELAY its memcpy size's
    #: index in ``copies``.
    ops: np.ndarray
    #: Rank r's ops are ``ops[starts[r]:starts[r + 1]]``.
    starts: np.ndarray
    sizes: List[int]
    copies: List[int]
    #: The ranks cannot stall: every Figure 2 flip has its mirror.
    live: bool


def compiled_program(schedule: Schedule) -> Program:
    """Every rank's program in the module docstring's order, compiled
    once from the schedule's columns and cached on it.

    Rank r's ops are the requests :func:`schedule_program` yields from
    its seat, in order: a send's pack memcpy ``Delay`` and its ``Send``,
    a ``Recv`` and its unpack ``Delay``.  The generator path, the
    compiled executor and the linter's deadlock replay all read this
    one program, so the schedule that is checked is the schedule that
    runs.

    One sort places every op: each transfer is a send record on its
    source and a receive record on its destination, ordered by (rank,
    step, class, peer) with class 0 for a receive from a lower rank, 1
    for a send and 2 for a receive from a higher rank.  The four keys
    are packed into one int64 (:func:`~repro.schedules.schedule.packed_key`;
    for a program of T steps at most ``((rank * T + step) * 3 + class) *
    n + peer``, which :data:`~repro.schedules.schedule.MAX_STEPS` keeps
    inside int64) and sorted once, stably.  That is the mixed-partner
    and receive-only order.  An exchange (a rank's step is one send and
    one receive with the same partner) sorts as Figure 3
    (``LOWER_SEND_FIRST``) and is flipped for Figure 2.

    The same order makes :attr:`Program.live` a deadlock-freedom
    certificate (the argument is in :mod:`repro.schedules.validate`).

    This is :func:`_compile`, the NumPy reference, when the kernel is not
    loaded, and its kernel twin when it is: the kernel places the
    records by rank with a counting sort (the columns are in step order
    already) and sorts only each (rank, step) group by (class, peer),
    the same order, so the programs are equal field by field.
    """
    try:
        return schedule._program  # type: ignore[attr-defined]
    except AttributeError:
        pass
    k = kernel()
    program = _compile(schedule) if k is None else _kernel_compile(k, schedule)
    object.__setattr__(schedule, "_program", program)
    return program


def _kernel_compile(k: Any, schedule: Schedule) -> Program:
    """The kernel's ``compile_program``: :func:`_compile`'s program, bit
    for bit (the argument is in ``_fastfill.c``), in one call.  ``ops``
    and ``starts`` are views of the int64 bytes it returns."""
    ops, starts, sizes, copies, live = k.compile_program(
        schedule.columns,
        schedule.nprocs,
        schedule.exchange_order == LOWER_RECV_FIRST,
    )
    return Program(
        np.frombuffer(ops, dtype=np.int64).reshape(-1, 4),
        np.frombuffer(starts, dtype=np.int64),
        sizes,
        copies,
        live,
    )


def _compile(schedule: Schedule) -> Program:
    """The NumPy compile: the reference, and the path without the kernel."""
    n = schedule.nprocs
    step, src, dst, nbytes, pack, unpack = schedule.columns
    m = step.size
    # Record k < m is transfer k's send, record m + k its receive.
    rank = np.concatenate((src, dst))
    peer = np.concatenate((dst, src))
    index = np.concatenate((np.arange(m), np.arange(m)))
    send = np.arange(2 * m) < m
    klass = np.concatenate((np.ones(m, dtype=np.int64), 2 * (src > dst)))
    tag = step[index]
    order = np.argsort(packed_key(rank, tag, klass, peer), kind="stable")
    rank, peer, tag, send = rank[order], peer[order], tag[order], send[order]
    # Ops i and i + 1 make up their rank's whole step: an exchange.
    same = (rank[1:] == rank[:-1]) & (tag[1:] == tag[:-1])
    pair = same & (peer[1:] == peer[:-1]) & (send[1:] != send[:-1])
    pair[1:] &= ~same[:-1]
    pair[:-1] &= ~same[1:]
    i = np.flatnonzero(pair)
    live = True
    if schedule.exchange_order == LOWER_RECV_FIRST:
        # A flip covers a send and a receive record of two transfers; it
        # is mirrored iff each transfer's other record is flipped too.
        flipped = index[order[np.concatenate((i, i + 1))]]
        live = not (np.bincount(flipped) == 1).any()
        order[i], order[i + 1] = order[i + 1], order[i]
        send[i] ^= True
        send[i + 1] ^= True
    index = index[order]
    wire = nbytes[index]
    sizes = np.unique(wire[send])
    ops = np.empty((send.size, 4), dtype=np.int64)
    ops[:, 0] = ~send  # SEND 0, RECV 1
    ops[:, 1] = peer
    ops[:, 2] = tag
    ops[:, 3] = np.searchsorted(sizes, wire) * send
    # A memcpy Delay row goes before its send, after its receive.
    copy = np.where(send, pack[index], unpack[index])
    at = np.flatnonzero(copy)
    copies = np.unique(copy[at])
    if at.size:
        delays = np.zeros((at.size, 4), dtype=np.int64)
        delays[:, 0] = DELAY
        delays[:, 3] = np.searchsorted(copies, copy[at])
        ops = np.insert(ops, at + ~send[at], delays, axis=0)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(rank, minlength=n) + np.bincount(rank[at], minlength=n),
        out=starts[1:],
    )
    return Program(ops, starts, sizes.tolist(), copies.tolist(), live)


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

    One flat generator walks the rank's ops of :func:`compiled_program`;
    the step index doubles as the message tag.  A send reported
    :data:`DROPPED` enters the retry loop of :meth:`Comm.reliable_send`
    (:meth:`Comm.resend_dropped`).
    """
    program = compiled_program(schedule)
    sizes, copies, starts = program.sizes, program.copies, program.starts
    r = comm.rank
    for kind, peer, tag, index in program.ops[starts[r] : starts[r + 1]].tolist():
        if kind == SEND:
            payload = outbox.get(peer) if outbox is not None else None
            if (yield Send(peer, sizes[index], payload, tag)) is DROPPED:
                yield from comm.resend_dropped(peer, sizes[index], payload, tag)
        elif kind == RECV:
            got = yield Recv(peer, tag)
            if inbox is not None:
                inbox[peer] = got
        else:
            yield comm.memcpy(copies[index])


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

    Without ``trace``, ``faults`` or a tracer (attached or current), and
    with the kernel loaded, the run takes the compiled schedule
    executor (see the module docstring); the result is the same.
    """
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    from .. import obs

    effective = tracer if tracer is not None else obs.current()
    with obs.span(f"execute/{schedule.name}", category="execute"):
        sim = None
        if (
            kernel() is not None
            and not trace
            and effective is None
            and faults is None
        ):
            program = compiled_program(schedule)
            sim = Engine(config, seed=seed)._run_compiled(
                program.ops, program.starts, program.sizes, program.copies
            )
        if sim is None:
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
