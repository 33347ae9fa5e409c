"""CMMD-flavoured communication facade for rank programs.

The paper's experiments were written against Thinking Machines' CMMD
library, whose software revision at the time supported only *synchronous*
point-to-point communication.  This module exposes the same vocabulary on
top of the simulator's request objects:

* ``comm.send(dst, nbytes)`` / ``comm.recv(src)`` — blocking rendezvous
  (CMMD ``CMMD_send_block`` / ``CMMD_receive_block``),
* ``comm.swap(partner, nbytes)`` — the paper's deadlock-free pairwise
  exchange idiom (lower rank receives first; Figure 2),
* ``comm.sys_broadcast(...)`` / ``comm.reduce(...)`` / ``comm.barrier()``
  — control-network collectives,
* ``comm.compute(flops)`` / ``comm.memcpy(nbytes)`` — charge local work.

Rank programs are generators; plain requests are ``yield``-ed and the
compound idioms are used with ``yield from``::

    def program(comm):
        if comm.rank == 0:
            yield comm.send(1, 1024)
        elif comm.rank == 1:
            data = yield comm.recv(0)
        got = yield from comm.swap(comm.rank ^ 1, 512)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..machine.params import CM5Params, MachineConfig
from ..sim.process import (
    ANY_SOURCE,
    ANY_TAG,
    DROPPED,
    Barrier,
    Delay,
    Isend,
    Recv,
    Reduce,
    Send,
    SendHandle,
    SysBroadcast,
    Wait,
)

__all__ = ["Comm", "RetryPolicy", "MessageLostError", "DEFAULT_RETRY_POLICY"]


class MessageLostError(RuntimeError):
    """A reliable send exhausted its retry budget (the message is gone)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry-with-backoff parameters for :meth:`Comm.reliable_send`.

    Attempt ``k`` (0-based) that is reported dropped waits
    ``base_backoff * multiplier**k`` before resending; after
    ``max_retries`` resends the send raises :class:`MessageLostError`.
    """

    max_retries: int = 8
    base_backoff: float = 100e-6
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff < 0:
            raise ValueError(
                f"base_backoff must be >= 0, got {self.base_backoff}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff(self, attempt: int) -> float:
        """Backoff delay before resending after failed attempt ``attempt``."""
        return self.base_backoff * self.multiplier**attempt


DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class Comm:
    """Per-rank handle passed to every rank program."""

    rank: int
    config: MachineConfig

    @property
    def size(self) -> int:
        return self.config.nprocs

    @property
    def params(self) -> CM5Params:
        return self.config.params

    # ------------------------------------------------------------------
    # Point-to-point (yield the returned request)
    # ------------------------------------------------------------------
    def send(self, dst: int, nbytes: int, payload: Any = None, tag: int = 0) -> Send:
        """Blocking synchronous send (CMMD ``CMMD_send_block``)."""
        return Send(dst=dst, nbytes=nbytes, payload=payload, tag=tag)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Recv:
        """Blocking receive; ``yield`` evaluates to the sender's payload."""
        return Recv(src=src, tag=tag)

    def isend(
        self, dst: int, nbytes: int, payload: Any = None, tag: int = 0
    ) -> Isend:
        """Non-blocking send; ``yield`` evaluates to a :class:`SendHandle`.

        Models the asynchronous mode the paper's Section 3.1 wishes for;
        pair with :meth:`wait`.  Not available in the CMMD revision the
        paper measured — used only by the sync-vs-async ablation.
        """
        return Isend(dst=dst, nbytes=nbytes, payload=payload, tag=tag)

    def wait(self, handle: SendHandle) -> Wait:
        """Block until a non-blocking send completes."""
        return Wait(handle=handle)

    # ------------------------------------------------------------------
    # Compound idioms (use with ``yield from``)
    # ------------------------------------------------------------------
    def reliable_send(
        self,
        dst: int,
        nbytes: int,
        payload: Any = None,
        tag: int = 0,
        policy: Optional[RetryPolicy] = None,
    ) -> Generator[Any, Any, Any]:
        """Blocking send that survives fault-injected message drops.

        Semantically identical to :meth:`send` on a healthy machine (one
        request, no extra cost).  Under a :class:`~repro.faults.FaultPlan`
        with ``MessageDrop`` faults, a lost message resumes the sender
        with the ``DROPPED`` sentinel; this loop then backs off per
        ``policy`` and resends, raising :class:`MessageLostError` when
        the budget is exhausted.  Every failed attempt is recorded in the
        :class:`~repro.sim.trace.Trace` as a retry record.  Use with
        ``yield from``.
        """
        outcome = yield Send(dst, nbytes, payload, tag)
        if outcome is DROPPED:
            outcome = yield from self.resend_dropped(dst, nbytes, payload, tag, policy)
        return outcome

    def resend_dropped(
        self,
        dst: int,
        nbytes: int,
        payload: Any = None,
        tag: int = 0,
        policy: Optional[RetryPolicy] = None,
    ) -> Generator[Any, Any, Any]:
        """The retry loop of :meth:`reliable_send` after a first drop.

        Backs off per ``policy`` and resends until an attempt is not
        reported :data:`DROPPED`, raising :class:`MessageLostError` once
        ``max_retries`` resends have also been lost.  Exposed for rank
        programs that yield the first :class:`Send` themselves (the
        schedule executor's flat program).  Use with ``yield from``.
        """
        policy = policy or DEFAULT_RETRY_POLICY
        attempt = 0
        while attempt < policy.max_retries:
            yield Delay(policy.backoff(attempt))
            attempt += 1
            outcome = yield Send(dst, nbytes, payload, tag)
            if outcome is not DROPPED:
                return outcome
        raise MessageLostError(
            f"rank {self.rank}: send to {dst} ({nbytes}B, tag {tag}) "
            f"lost after {attempt + 1} attempts"
        )

    def swap(
        self,
        partner: int,
        nbytes: int,
        payload: Any = None,
        tag: int = 0,
        recv_nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, Any]:
        """Exchange with ``partner``, lower rank receiving first (Figure 2).

        Returns the partner's payload.  ``recv_nbytes`` is informational
        only (sizes are carried by the sends); it exists so irregular
        exchanges can document asymmetric volumes.
        """
        if partner == self.rank:
            raise ValueError(f"rank {self.rank}: cannot swap with itself")
        if self.rank < partner:
            got = yield self.recv(partner, tag)
            yield from self.reliable_send(partner, nbytes, payload, tag)
        else:
            yield from self.reliable_send(partner, nbytes, payload, tag)
            got = yield self.recv(partner, tag)
        return got

    # ------------------------------------------------------------------
    # Control-network collectives
    # ------------------------------------------------------------------
    def barrier(self) -> Barrier:
        return Barrier()

    def sys_broadcast(
        self, root: int, nbytes: int, payload: Any = None
    ) -> SysBroadcast:
        """CMMD system broadcast: every rank in the partition participates."""
        return SysBroadcast(root=root, nbytes=nbytes, payload=payload)

    def reduce(self, value: Any, nbytes: int, op: Any = operator.add) -> Reduce:
        """Global reduction; ``yield`` evaluates to the combined value."""
        return Reduce(value=value, nbytes=nbytes, op=op)

    # ------------------------------------------------------------------
    # Local work
    # ------------------------------------------------------------------
    def compute(self, flops: float) -> Delay:
        """Charge ``flops`` of local floating-point work to this node."""
        return Delay(self.params.compute_time(flops))

    def memcpy(self, nbytes: int) -> Delay:
        """Charge a local buffer copy (pack/unpack) to this node."""
        return Delay(self.params.memcpy_time(nbytes))

    def delay(self, seconds: float) -> Delay:
        """Charge an arbitrary local delay (already-computed cost)."""
        return Delay(seconds)
