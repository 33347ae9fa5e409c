"""Discrete-event engine running SPMD rank programs in simulated time.

The engine couples three models:

* rank programs (generators yielding :mod:`repro.sim.process` requests),
* the rendezvous table for synchronous point-to-point matching
  (:mod:`repro.sim.channels`),
* the fluid data-network contention model
  (:class:`repro.machine.contention.FluidNetwork`) and the analytic
  control network (:class:`repro.machine.control.ControlNetwork`).

Timing of one synchronous message (all constants from
:class:`repro.machine.params.CM5Params`)::

    sender:   [send_overhead]----(blocked)------------------resume
    wire:                    [wire_latency][payload / fair rate]
    receiver: (blocked on recv).......................[recv_overhead]-resume

The sender resumes when the wire drains (its rendezvous ack); the
receiver resumes after additionally paying its software service time.
With both sides ready at t=0 a zero-byte message completes at
``send_overhead + wire_latency + wire(20 B) + recv_overhead`` — 88 us
with the calibrated defaults, matching the paper's Section 2.

Determinism: no wall-clock, no unseeded randomness; identical inputs
give identical timelines.
"""

from __future__ import annotations

import gc
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.model import FaultModel
from ..faults.plan import FaultPlan
from ..machine.contention import FluidNetwork
from ..machine.control import ControlNetwork
from ..machine.fattree import fat_tree_for
from ..machine.node import NodeCostModel
from ..machine.params import MachineConfig
from .channels import PostedRecv, PostedSend, RendezvousTable
from .events import event_queue
from .process import (
    DROPPED,
    Barrier,
    Delay,
    Isend,
    ProcState,
    Process,
    RankProgram,
    Recv,
    Reduce,
    Send,
    SendHandle,
    SysBroadcast,
    Wait,
)
from .trace import NULL_TRACE, MessageRecord, PhaseRecord, RetryRecord, Trace

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer

__all__ = ["Engine", "SimResult", "DeadlockError"]

# Enum member lookups cost a descriptor call each (~150 ns on CPython
# 3.11) and the hot path makes about a dozen per message, so the engine
# compares states against module-level aliases.
_BLOCKED_BARRIER = ProcState.BLOCKED_BARRIER
_BLOCKED_COLLECTIVE = ProcState.BLOCKED_COLLECTIVE
_BLOCKED_RECV = ProcState.BLOCKED_RECV
_BLOCKED_SEND = ProcState.BLOCKED_SEND
_DEAD = ProcState.DEAD
_DELAYED = ProcState.DELAYED
_DONE = ProcState.DONE
_RUNNING = ProcState.RUNNING
_BLOCKED = (_BLOCKED_SEND, _BLOCKED_RECV, _BLOCKED_BARRIER, _BLOCKED_COLLECTIVE)


class DeadlockError(RuntimeError):
    """Raised when every remaining process is blocked forever."""


@dataclass
class SimResult:
    """Outcome of one SPMD run."""

    makespan: float
    finish_times: List[float]
    results: List[Any]
    trace: Trace
    #: Number of point-to-point messages completed.
    message_count: int = 0
    #: Per-rank seconds spent blocked in sends/receives/collectives
    #: (rendezvous waits + wire time) — the simulator-level counterpart
    #: of the schedule-level idle metrics; the paper's "processor idle
    #: time" reduction claims are checked against this.
    wait_times: List[float] = field(default_factory=list)
    #: Ranks killed by NodeFailure faults (empty on a healthy run).
    failed_ranks: List[int] = field(default_factory=list)

    def rank_result(self, rank: int) -> Any:
        return self.results[rank]

    @property
    def total_wait(self) -> float:
        return sum(self.wait_times)


@dataclass(slots=True)
class _InFlight:
    send: PostedSend
    recv: PostedRecv
    sender: Process
    receiver: Process
    matched_at: float
    #: Handle for a non-blocking send (sender already resumed).
    handle: Optional[SendHandle] = None
    #: Delivery attempt index of this logical message (fault layer).
    attempt: int = 0
    #: None = clean delivery; else seconds after the wire drains at
    #: which the sender's loss timeout fires (the message is dropped).
    drop_detect: Optional[float] = None


def _message_cause(inf: _InFlight, side: str, delivered: float) -> dict:
    """Tracer cause for the resume that closes one side of a message."""
    send = inf.send
    return {
        "kind": "message",
        "side": side,
        "src": send.src,
        "dst": send.dst,
        "nbytes": send.nbytes,
        "tag": send.tag,
        "send_posted": send.posted_at,
        "matched_at": inf.matched_at,
        "delivered_at": delivered,
    }


class Engine:
    """One simulation run over a machine configuration.

    ``faults`` optionally injects a :class:`~repro.faults.FaultPlan`:
    degraded links reduce fluid-network capacities, stragglers stretch a
    rank's local Delay work (and optionally its per-message overheads),
    and message delays/drops perturb individual transfers.  A dropped
    synchronous send resumes its sender with the :data:`DROPPED`
    sentinel after the loss-detection timeout; the receiver's posted
    receive is silently re-posted, so a retry (see
    :meth:`repro.cmmd.api.Comm.reliable_send`) can complete the
    rendezvous.  Non-blocking sends (the async ablation) are exempt
    from drops.
    """

    def __init__(
        self,
        config: MachineConfig,
        trace: bool = False,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        max_trace_records: Optional[int] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self.config = config
        self.params = config.params
        self.tree = fat_tree_for(config)
        self.faults = FaultModel(faults, self.tree)
        self.net = FluidNetwork(
            self.tree, seed=seed, link_scales=self.faults.link_scales
        )
        #: Bulk completion pop, bound once.
        self._pop_completed_keys = self.net.pop_completed_keys
        self.tracer = tracer
        #: Cause dict for the resume that will close a rank's open op;
        #: set just before scheduling the resume, popped in _resume.
        #: Safe because a rank has at most one blocked op at a time.
        self._op_causes: Dict[int, dict] = {}
        if tracer is not None:
            if tracer.link_util is None:
                from ..obs import LinkUtilization

                tracer.link_util = LinkUtilization(self.tree)
            self.net.observer = tracer.link_util.record
        self.costs = NodeCostModel(self.params)
        # Hoisted per-message software costs (frozen params, hot path).
        self._send_setup = self.costs.send_setup()
        self._recv_service = self.costs.recv_service()
        self.control = ControlNetwork(self.params)
        self.queue = event_queue()
        #: ``_schedule(t, fn, *args)`` fires ``fn(*args)`` at ``t``.
        self._schedule = self.queue.push
        self.rendezvous = RendezvousTable()
        #: Simulated time; only the queue's drain loop advances it.
        self.now = 0.0
        self.trace: Trace = (
            Trace(max_records=max_trace_records) if trace else NULL_TRACE
        )
        # Plain floats: numpy scalars would leak into every timestamp.
        self._compute_slow = [float(x) for x in self.faults.compute_slowdowns()]
        self._overhead_slow = [float(x) for x in self.faults.overhead_slowdowns()]
        #: Delivery-attempt counter per (src, dst, tag) logical message.
        self._attempts: Dict[Tuple[int, int, int], int] = {}
        self.procs: List[Process] = []
        self._flow_seq = itertools.count()
        #: True when the flow set changed since the last arm — the arm
        #: in the drain loop is skipped otherwise (the armed completion
        #: instant is memoized and still valid).  Superseded armed
        #: events stay in the heap as stale no-ops on purpose: their
        #: *times* still define drain instants, and a live completion
        #: within ``_TIME_ATOL`` of such an instant must retire at the
        #: stale instant's timestamp (MODEL.md §13, pinned by the trace
        #: digests in tests/sim/test_batched_drain.py).
        self._net_changed = False
        self._net_gen = 0
        self._in_flight: Dict[int, _InFlight] = {}
        self._barrier_waiting: List[Process] = []
        self._collective: Optional[Tuple[str, List[Tuple[Process, Any]]]] = None
        self._messages_done = 0
        self._handle_seq = itertools.count()
        #: Posted-send sequence -> the Isend handle covering it.
        self._send_handles: Dict[int, SendHandle] = {}
        #: Handle seq -> process blocked in Wait on it.
        self._waiters: Dict[int, Process] = {}
        #: Ranks killed by NodeFailure faults, and their peers' timeout.
        self.dead_ranks: set = set()
        self._death_detect: Dict[int, float] = {}
        #: Optional hook called as ``on_death(rank, now)`` right after a
        #: rank is torn down (the resilience layer's failure detector).
        self.on_death: Optional[Callable[[int, float], None]] = None

    # ==================================================================
    # Public API
    # ==================================================================
    def run(self, programs: Sequence[RankProgram]) -> SimResult:
        """Run one generator per rank to completion; return timings."""
        if len(programs) != self.config.nprocs:
            raise ValueError(
                f"need {self.config.nprocs} rank programs, got {len(programs)}"
            )
        self.procs = [Process(rank=r, gen=g) for r, g in enumerate(programs)]
        for proc in self.procs:
            self._schedule(0.0, self._resume, proc, None)
        for rank, (at, detect) in sorted(self.faults.failure_times().items()):
            self._schedule(at, self._kill_rank, rank, detect)

        # The drain allocates heavily (events, in-flight records)
        # but creates no cycles the collector could free mid-run; pausing
        # generational GC avoids repeated full-heap scans over the
        # long-lived schedule/trace structures.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.queue.run(self)
        finally:
            if gc_was_enabled:
                gc.enable()

        unfinished = [
            p
            for p in self.procs
            if not p.done and p.state is not _DEAD
        ]
        if unfinished:
            raise DeadlockError(self._deadlock_report(unfinished))

        finish = [p.finish_time if p.finish_time is not None else 0.0 for p in self.procs]
        makespan = max(finish) if finish else 0.0
        if self.tracer is not None:
            self.tracer.meta["makespan"] = makespan
            self.tracer.meta["nprocs"] = self.config.nprocs
            self.tracer.metrics.counter("sim.messages").inc(self._messages_done)
            self.tracer.metrics.gauge("sim.makespan_seconds").set(makespan)
        return SimResult(
            makespan=makespan,
            finish_times=finish,
            results=[p.result for p in self.procs],
            trace=self.trace,
            message_count=self._messages_done,
            wait_times=[p.wait_time for p in self.procs],
            failed_ranks=sorted(self.dead_ranks),
        )

    # ==================================================================
    # Scheduling primitives
    # ==================================================================
    def _resume(self, proc: Process, value: Any) -> None:
        """Advance one rank's generator with ``value`` and dispatch."""
        if proc.state is _DEAD:
            return  # a callback armed before the rank was killed
        if self.tracer is not None:
            self.tracer.op_end(
                proc.rank, self.now, self._op_causes.pop(proc.rank, None)
            )
        if proc.state in _BLOCKED:
            proc.wait_time += self.now - proc.last_event_time
        proc.state = _RUNNING
        try:
            # A fresh generator must be primed with None; send(None) is
            # exactly next() in that case, so one call covers both.
            request = proc.gen.send(value)
        except StopIteration as stop:
            proc.state = _DONE
            proc.finish_time = self.now
            proc.result = stop.value
            return
        self._dispatch(proc, request)

    _OP_KINDS = {
        Send: "send",
        Isend: "isend",
        Wait: "wait",
        Recv: "recv",
        Delay: "delay",
        Barrier: "barrier",
        SysBroadcast: "bcast",
        Reduce: "reduce",
    }

    def _trace_op_begin(self, proc: Process, request: Any) -> None:
        kind = self._OP_KINDS.get(type(request), "op")
        if kind in ("send", "isend"):
            detail = f"->{request.dst} {request.nbytes}B tag={request.tag}"
        elif kind == "recv":
            detail = f"<-{'ANY' if request.src < 0 else request.src}"
        elif kind == "delay":
            detail = f"{request.seconds:.3e}s"
        else:
            detail = ""
        self.tracer.op_begin(proc.rank, kind, self.now, detail)

    def _dispatch(self, proc: Process, request: Any) -> None:
        if self.tracer is not None:
            self._trace_op_begin(proc, request)
        if isinstance(request, Send):
            proc.state = _BLOCKED_SEND
            # The request object doubles as the wait description; the
            # deadlock report formats it lazily (hot path: no f-string).
            proc.waiting_on = request
            self._check_dst(proc, request.dst)
            self._schedule(
                self.now + self._send_setup * self._overhead_slow[proc.rank],
                self._post_send,
                proc,
                request,
            )
        elif isinstance(request, Recv):
            proc.state = _BLOCKED_RECV
            proc.waiting_on = request
            self._post_recv(proc, request)
        elif isinstance(request, Delay):
            proc.state = _DELAYED
            proc.waiting_on = request
            # Stragglers stretch local work (compute, pack/unpack).
            self._schedule(
                self.now + request.seconds * self._compute_slow[proc.rank],
                self._resume,
                proc,
                None,
            )
        elif isinstance(request, Isend):
            self._check_dst(proc, request.dst)
            handle = SendHandle(seq=next(self._handle_seq))
            # The sender pays the software setup, then proceeds; the
            # message completes (and the handle flips) on its own.
            self._schedule(
                self.now + self._send_setup * self._overhead_slow[proc.rank],
                self._post_isend,
                proc,
                request,
                handle,
            )
        elif isinstance(request, Wait):
            handle = request.handle
            if handle.done:
                self._schedule(self.now, self._resume, proc, None)
            else:
                proc.state = _BLOCKED_SEND
                proc.waiting_on = f"wait on isend #{handle.seq}"
                if handle.seq in self._waiters:
                    raise RuntimeError(
                        f"two processes waiting on isend #{handle.seq}"
                    )
                self._waiters[handle.seq] = proc
        elif isinstance(request, Barrier):
            proc.state = _BLOCKED_BARRIER
            proc.waiting_on = "barrier"
            self._barrier_waiting.append(proc)
            self._check_barrier(proc.rank)
        elif isinstance(request, SysBroadcast):
            self._join_collective(proc, "bcast", request)
        elif isinstance(request, Reduce):
            self._join_collective(proc, "reduce", request)
        else:
            raise TypeError(
                f"rank {proc.rank} yielded unsupported request: {request!r}"
            )
        proc.last_event_time = self.now

    def _live_count(self) -> int:
        return self.config.nprocs - len(self.dead_ranks)

    def _check_barrier(self, last_rank: int) -> None:
        """Release the barrier once every *live* rank has arrived."""
        if not self._barrier_waiting:
            return
        if len(self._barrier_waiting) < self._live_count():
            return
        waiters, self._barrier_waiting = self._barrier_waiting, []
        done_at = self.now + self.control.barrier(self.config.nprocs)
        for p in waiters:
            if self.tracer is not None:
                self._op_causes[p.rank] = {
                    "kind": "barrier",
                    "last_rank": last_rank,
                    "last_arrival": self.now,
                }
            self._schedule(done_at, self._resume, p, None)

    # ==================================================================
    # Point-to-point
    # ==================================================================
    def _check_dst(self, proc: Process, dst: int) -> None:
        if not 0 <= dst < self.config.nprocs:
            raise ValueError(f"rank {proc.rank}: bad send dst {dst}")
        if dst == proc.rank:
            raise ValueError(f"rank {proc.rank}: self-send is not supported")

    def _post_send(self, proc: Process, req: Send) -> None:
        if proc.state is _DEAD:
            return
        if req.dst in self.dead_ranks:
            self._fail_to_dead(
                proc, req.dst, req.nbytes, req.tag, posted_at=self.now
            )
            return
        send, recv = self.rendezvous.post_send(
            proc.rank, req.dst, req.nbytes, req.payload, req.tag, self.now
        )
        if recv is not None:
            self._start_transfer(send, recv)

    def _post_isend(self, proc: Process, req: Isend, handle: SendHandle) -> None:
        if proc.state is _DEAD:
            return
        if req.dst in self.dead_ranks:
            # The data is discarded; the handle completes at the
            # sender's failure-detection timeout, like a blocking send.
            self._record_dead_drop(proc.rank, req.dst, req.nbytes, req.tag, self.now)
            self._schedule(self.now, self._resume, proc, handle)
            detect = self._death_detect.get(req.dst, 0.0)
            self._schedule(self.now + detect, self._flip_handle, handle)
            return
        send, recv = self.rendezvous.post_send(
            proc.rank, req.dst, req.nbytes, req.payload, req.tag, self.now
        )
        self._send_handles[send.seq] = handle
        # The sender resumes immediately with the handle.
        self._schedule(self.now, self._resume, proc, handle)
        if recv is not None:
            self._start_transfer(send, recv)

    def _post_recv(self, proc: Process, req: Recv) -> None:
        if proc.state is _DEAD:
            return
        if req.src >= 0 and req.src in self.dead_ranks:
            detect = self._death_detect.get(req.src, 0.0)
            if self.tracer is not None:
                self._op_causes[proc.rank] = {
                    "kind": "dead",
                    "src": req.src,
                    "dst": proc.rank,
                    "failed_at": self.now,
                }
            self._schedule(self.now + detect, self._resume, proc, DROPPED)
            return
        recv, send = self.rendezvous.post_recv(
            proc.rank, req.src, req.tag, self.now
        )
        if send is not None:
            self._start_transfer(send, recv)

    def _record_dead_drop(
        self, src: int, dst: int, nbytes: int, tag: int, posted_at: float
    ) -> None:
        self.trace.add_retry(
            RetryRecord(
                src=src,
                dst=dst,
                nbytes=nbytes,
                tag=tag,
                attempt=self._attempts.get((src, dst, tag), 0),
                posted_at=posted_at,
                failed_at=self.now,
                reason="dead",
            )
        )

    def _fail_to_dead(
        self, sender: Process, dst: int, nbytes: int, tag: int, posted_at: float
    ) -> None:
        """Resolve a blocking send to a dead rank through the DROPPED path."""
        self._record_dead_drop(sender.rank, dst, nbytes, tag, posted_at)
        detect = self._death_detect.get(dst, 0.0)
        if self.tracer is not None:
            self._op_causes[sender.rank] = {
                "kind": "dead",
                "src": sender.rank,
                "dst": dst,
                "tag": tag,
                "failed_at": self.now,
            }
        self._schedule(self.now + detect, self._resume, sender, DROPPED)

    def _start_transfer(self, send: PostedSend, recv: PostedRecv) -> None:
        key = next(self._flow_seq)
        handle = self._send_handles.pop(send.seq, None)
        extra_latency = 0.0
        attempt = 0
        drop_detect = None
        if self.faults.has_message_faults:
            msg_key = (send.src, send.dst, send.tag)
            attempt = self._attempts.get(msg_key, 0)
            self._attempts[msg_key] = attempt + 1
            extra_latency = self.faults.message_delay(send.src, send.dst, attempt)
            if handle is None:
                # Drops apply to blocking (rendezvous) sends only: a
                # non-blocking sender has already moved on and has no
                # timeout to fire.
                drop_detect = self.faults.message_drop(
                    send.src, send.dst, attempt
                )
        self._in_flight[key] = _InFlight(
            send=send,
            recv=recv,
            sender=self.procs[send.src],
            receiver=self.procs[send.dst],
            matched_at=self.now,
            handle=handle,
            attempt=attempt,
            drop_detect=drop_detect,
        )
        # First-packet pipeline fill before the fluid drain begins.
        start_at = self.now + self.params.wire_latency + extra_latency
        self._schedule(start_at, self._flow_begin, key)

    def _flow_begin(self, key: int) -> None:
        inf = self._in_flight[key]
        send = inf.send
        self.net.advance_to(self.now)
        self.net.add_flow(key, send.src, send.dst, send.nbytes)
        self._net_changed = True

    def _flow_complete(self, key: int) -> None:
        inf = self._in_flight.pop(key)
        if inf.send.src in self.dead_ranks or inf.send.dst in self.dead_ranks:
            # Fail-stop: a transfer whose endpoint died mid-flight is
            # lost with it.  The surviving endpoint (if any) resolves
            # through the DROPPED path at its detection timeout.
            self._abort_dead_flow(inf)
            return
        if inf.drop_detect is not None:
            self._drop_message(inf)
            return
        if self.faults.has_message_faults:
            # Clean delivery closes the logical message: a later message
            # between the same endpoints/tag gets a fresh attempt count.
            self._attempts.pop((inf.send.src, inf.send.dst, inf.send.tag), None)
        self._messages_done += 1
        trc = self.tracer
        if inf.handle is not None:
            # Non-blocking send: flip the handle, release any waiter.
            inf.handle.done = True
            waiter = self._waiters.pop(inf.handle.seq, None)
            if waiter is not None:
                if trc is not None:
                    self._op_causes[waiter.rank] = _message_cause(
                        inf, "send", self.now
                    )
                self._schedule(self.now, self._resume, waiter, None)
        else:
            # Synchronous send: the rendezvous ack resumes the sender.
            if trc is not None:
                self._op_causes[inf.sender.rank] = _message_cause(
                    inf, "send", self.now
                )
            self._schedule(self.now, self._resume, inf.sender, None)
        # Receiver pays its software service time, then gets the payload.
        done_at = self.now + self._recv_service * self._overhead_slow[
            inf.send.dst
        ]
        if trc is not None:
            self._op_causes[inf.receiver.rank] = _message_cause(
                inf, "recv", done_at
            )
            trc.metrics.counter("sim.bytes_delivered").inc(inf.send.nbytes)
        self._schedule(done_at, self._resume, inf.receiver, inf.send.payload)
        if self.trace is not NULL_TRACE:
            self.trace.add_message(
                MessageRecord(
                    src=inf.send.src,
                    dst=inf.send.dst,
                    nbytes=inf.send.nbytes,
                    tag=inf.send.tag,
                    send_posted=inf.send.posted_at,
                    matched_at=inf.matched_at,
                    delivered_at=done_at,
                    route_level=self.tree.route_level(
                        inf.send.src, inf.send.dst
                    ),
                )
            )

    def _drop_message(self, inf: _InFlight) -> None:
        """A transfer whose data was lost in flight (fault injection).

        The wire time was spent, but the receiver never sees the
        message: its receive is re-posted as if never matched, and the
        sender is resumed with :data:`DROPPED` once its ack timeout
        (``detect_seconds`` after the drain) fires.  The retry layer
        (:meth:`repro.cmmd.api.Comm.reliable_send`) backs off and
        resends.
        """
        self.trace.add_retry(
            RetryRecord(
                src=inf.send.src,
                dst=inf.send.dst,
                nbytes=inf.send.nbytes,
                tag=inf.send.tag,
                attempt=inf.attempt,
                posted_at=inf.send.posted_at,
                failed_at=self.now,
            )
        )
        if inf.receiver.state is not _DEAD:
            recv, send = self.rendezvous.post_recv(
                inf.recv.dst, inf.recv.src, inf.recv.tag, self.now
            )
            if send is not None:
                # The re-posted receive matched some other pending send.
                self._start_transfer(send, recv)
        sender = inf.sender
        if self.tracer is not None:
            self._op_causes[sender.rank] = {
                "kind": "retry",
                "src": inf.send.src,
                "dst": inf.send.dst,
                "tag": inf.send.tag,
                "attempt": inf.attempt,
                "failed_at": self.now,
            }
            self.tracer.metrics.counter("sim.drops").inc()
        self._schedule(self.now + inf.drop_detect, self._resume, sender, DROPPED)

    def _abort_dead_flow(self, inf: _InFlight) -> None:
        """Resolve an in-flight transfer one of whose endpoints died."""
        dead_peer = inf.send.dst if inf.send.dst in self.dead_ranks else inf.send.src
        self.trace.add_retry(
            RetryRecord(
                src=inf.send.src,
                dst=inf.send.dst,
                nbytes=inf.send.nbytes,
                tag=inf.send.tag,
                attempt=inf.attempt,
                posted_at=inf.send.posted_at,
                failed_at=self.now,
                reason="dead",
            )
        )
        detect = self._death_detect.get(dead_peer, 0.0)
        if inf.send.dst in self.dead_ranks:
            # Sender survives (maybe): unblock it with DROPPED.
            if inf.handle is not None:
                inf.handle.done = True
                waiter = self._waiters.pop(inf.handle.seq, None)
                if waiter is not None:
                    self._schedule(self.now + detect, self._resume, waiter, None)
            elif inf.sender.state is not _DEAD:
                if self.tracer is not None:
                    self._op_causes[inf.sender.rank] = {
                        "kind": "dead",
                        "src": inf.send.src,
                        "dst": inf.send.dst,
                        "tag": inf.send.tag,
                        "failed_at": self.now,
                    }
                self._schedule(
                    self.now + detect, self._resume, inf.sender, DROPPED
                )
        if inf.send.src in self.dead_ranks and inf.receiver.state is not _DEAD:
            # Receiver survives: its blocking receive fails.
            if self.tracer is not None:
                self._op_causes[inf.receiver.rank] = {
                    "kind": "dead",
                    "src": inf.send.src,
                    "dst": inf.send.dst,
                    "tag": inf.send.tag,
                    "failed_at": self.now,
                }
            self._schedule(
                self.now + detect, self._resume, inf.receiver, DROPPED
            )

    # ==================================================================
    # Node failures (fail-stop)
    # ==================================================================
    def _kill_rank(self, rank: int, detect: float) -> None:
        """Tear rank ``rank`` down at the current instant (NodeFailure).

        Its unmatched rendezvous posts are purged; live peers blocked on
        it are resumed with :data:`DROPPED` ``detect`` seconds later
        (their software failure-detection timeout).  In-flight transfers
        touching the rank are left to drain and aborted in
        :meth:`_flow_complete`.  Barriers and collectives re-check with
        the reduced live count so survivors are not stranded.
        """
        proc = self.procs[rank]
        if proc.state is _DONE or proc.state is _DEAD:
            return
        if self.tracer is not None:
            self.tracer.op_end(
                rank, self.now, {"kind": "death", "rank": rank}
            )
            self._op_causes.pop(rank, None)
            self.tracer.metrics.counter("sim.node_failures").inc()
        proc.state = _DEAD
        proc.finish_time = self.now
        proc.waiting_on = "dead"
        proc.gen.close()
        self.dead_ranks.add(rank)
        self._death_detect[rank] = detect

        sends_to, recvs_on = self.rendezvous.purge_rank(rank)
        for send in sends_to:
            if send.src == rank:
                continue  # the dead rank's own posts just vanish
            sender = self.procs[send.src]
            handle = self._send_handles.pop(send.seq, None)
            if handle is not None:
                self._record_dead_drop(
                    send.src, send.dst, send.nbytes, send.tag, send.posted_at
                )
                self._schedule(self.now + detect, self._flip_handle, handle)
            elif sender.state is not _DEAD:
                self._fail_to_dead(
                    sender, rank, send.nbytes, send.tag, send.posted_at
                )
        for recv in recvs_on:
            receiver = self.procs[recv.dst]
            if receiver.state is _DEAD:
                continue
            if self.tracer is not None:
                self._op_causes[receiver.rank] = {
                    "kind": "dead",
                    "src": rank,
                    "dst": recv.dst,
                    "failed_at": self.now,
                }
            self._schedule(self.now + detect, self._resume, receiver, DROPPED)
        # A dead rank stuck in a barrier/collective must not gate the
        # survivors — drop it from the membership and re-check.
        self._barrier_waiting = [
            p for p in self._barrier_waiting if p.rank != rank
        ]
        if self._collective is not None:
            kind, members = self._collective
            members[:] = [(p, r) for p, r in members if p.rank != rank]
        self._check_barrier(rank)
        self._check_collective()
        if self.on_death is not None:
            self.on_death(rank, self.now)

    def _flip_handle(self, handle: SendHandle) -> None:
        handle.done = True
        waiter = self._waiters.pop(handle.seq, None)
        if waiter is not None:
            self._schedule(self.now, self._resume, waiter, None)

    def _arm_network_event(self) -> None:
        # Called after a drained instant only when a flow was added or
        # retired; otherwise the armed event (if any) is still valid —
        # its completion instant is memoized and unchanged — and the
        # re-arm is skipped instead of re-pushing an identical event.
        # Superseded events are left in the heap and skipped by
        # generation number when popped; see __init__ for why their
        # times must survive.
        self._net_changed = False
        self._net_gen += 1
        if self.net.active_count == 0:
            return
        t = self.net.earliest_completion()
        if t is None:
            return
        gen = self._net_gen
        self._schedule(max(t, self.now), self._net_check, gen)

    def _net_check(self, gen: int) -> None:
        if gen != self._net_gen:
            return  # stale: flow set changed since this was armed
        keys = self._pop_completed_keys(self.now)
        if keys:
            self._net_changed = True
            for key in keys:
                self._flow_complete(key)

    # ==================================================================
    # Control-network collectives
    # ==================================================================
    def _join_collective(self, proc: Process, kind: str, req: Any) -> None:
        proc.state = _BLOCKED_COLLECTIVE
        proc.waiting_on = kind
        if self._collective is None:
            self._collective = (kind, [])
        have_kind, members = self._collective
        if have_kind != kind:
            raise RuntimeError(
                f"collective mismatch: rank {proc.rank} called {kind} while a "
                f"{have_kind} is in progress"
            )
        members.append((proc, req))
        self._check_collective()

    def _check_collective(self) -> None:
        """Complete the pending collective once every live rank joined."""
        if self._collective is None:
            return
        kind, members = self._collective
        if len(members) >= self._live_count():
            self._collective = None
            self._complete_collective(kind, members)

    def _complete_collective(
        self, kind: str, members: List[Tuple[Process, Any]]
    ) -> None:
        n = self.config.nprocs
        if self.tracer is not None:
            # Members are in arrival order; the last one released everyone.
            last_rank = members[-1][0].rank
            for p, _ in members:
                self._op_causes[p.rank] = {
                    "kind": kind,
                    "last_rank": last_rank,
                    "last_arrival": self.now,
                }
        if kind == "bcast":
            roots = {req.root for _, req in members}
            if len(roots) != 1:
                raise RuntimeError(f"broadcast roots disagree: {sorted(roots)}")
            root = roots.pop()
            # A dead root never contributed: survivors get no payload.
            root_req = next(
                (req for p, req in members if p.rank == root), None
            )
            nbytes = root_req.nbytes if root_req else 0
            payload = root_req.payload if root_req else None
            done_at = self.now + self.control.broadcast(nbytes, n)
            for p, _ in members:
                self._schedule(done_at, self._resume, p, payload)
            self.trace.add_phase(
                PhaseRecord(root, "sys-bcast", self.now, done_at)
            )
        elif kind == "reduce":
            members_sorted = sorted(members, key=lambda pr: pr[0].rank)
            op = members_sorted[0][1].op or operator.add
            acc = members_sorted[0][1].value
            for _, req in members_sorted[1:]:
                acc = op(acc, req.value)
            nbytes = max(req.nbytes for _, req in members)
            done_at = self.now + self.control.reduce(nbytes, n)
            for p, _ in members:
                self._schedule(done_at, self._resume, p, acc)
        else:  # pragma: no cover - kinds are internal
            raise RuntimeError(f"unknown collective kind: {kind}")

    # ==================================================================
    @staticmethod
    def _describe_wait(waiting_on: Any) -> str:
        """Format a lazily stored wait description for the report."""
        if isinstance(waiting_on, Send):
            return f"send to {waiting_on.dst} ({waiting_on.nbytes}B)"
        if isinstance(waiting_on, Recv):
            src = "ANY" if waiting_on.src < 0 else waiting_on.src
            return f"recv from {src}"
        if isinstance(waiting_on, Delay):
            return f"delay {waiting_on.seconds:.2e}s"
        return str(waiting_on)

    def _deadlock_report(self, unfinished: List[Process]) -> str:
        lines = ["simulation deadlocked; blocked ranks:"]
        if self.dead_ranks:
            lines.append(f"  dead ranks: {sorted(self.dead_ranks)}")
        for p in unfinished:
            lines.append(
                f"  rank {p.rank}: {p.state.value}"
                f" ({self._describe_wait(p.waiting_on)})"
            )
        lines.append(f"unmatched: {self.rendezvous.describe_pending()}")
        if self._barrier_waiting:
            ranks = [p.rank for p in self._barrier_waiting]
            lines.append(f"barrier waiting: {ranks}")
        if self._collective is not None:
            kind, members = self._collective
            lines.append(
                f"collective {kind} waiting: {[p.rank for p, _ in members]}"
            )
        return "\n".join(lines)
