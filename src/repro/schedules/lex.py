"""Linear Exchange (LEX) and Linear Scheduling (LS).

The simplest algorithm (paper Section 3.1): for an N-processor system
there are N steps, and in step *i* processor *i* receives a message from
every other processor.  Under the CM-5's synchronous-communication
constraint all those senders rendezvous with a single receiver that can
only service one message at a time, which serializes the step — the
reason LEX/LS perform far worse than everything else throughout the
paper's evaluation.

Linear Scheduling (Section 4.1) is the same structure driven by an
irregular ``Pattern`` matrix: in step *i* only the processors with
``Pattern[j][i] > 0`` send; the rest idle.
"""

from __future__ import annotations

import operator

import numpy as np

from .. import obs
from .pattern import CommPattern
from .schedule import Schedule, compact_steps

__all__ = ["linear_schedule", "linear_exchange"]


def _linear(
    nprocs: int, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray, name: str
) -> Schedule:
    """Columns of a linear schedule: transfers sorted by receiver, then
    sender, one step per receiver present."""
    step = compact_steps(dst)
    zeros = np.zeros_like(nbytes)
    return Schedule(
        nprocs, np.stack((step, src, dst, nbytes, zeros, zeros)), name=name
    )


def linear_schedule(pattern: CommPattern, name: str = "LS") -> Schedule:
    """Linear Scheduling of an irregular pattern (paper Table 7).

    Step *i* delivers every pending message whose destination is rank
    *i*, in ascending sender order (the order the receiver posts its
    receives).  Steps with no communication are dropped from the
    schedule, matching how the paper counts steps.
    """
    n = pattern.nprocs
    with obs.span(f"build/{name}", category="build", nprocs=n):
        dst, src = np.nonzero(pattern.matrix.T)
        return _linear(n, src, dst, pattern.matrix[src, dst], name)


def linear_exchange(nprocs: int, nbytes: int) -> Schedule:
    """Linear Exchange: complete exchange scheduled linearly (Table 1).

    Zero-byte messages are kept (the rendezvous and its latency still
    happen), so the Figure 5/6 sweeps can start at 0 bytes.
    """
    nbytes = operator.index(nbytes)
    if nprocs < 2:
        raise ValueError(f"need at least 2 processors, got {nprocs}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    with obs.span("build/LEX", category="build", nprocs=nprocs):
        # Receiver i hears from every j != i: j < i, then j + 1 for j >= i.
        dst = np.repeat(np.arange(nprocs), nprocs - 1)
        src = np.tile(np.arange(nprocs - 1), nprocs)
        src += src >= dst
        size = np.full(dst.size, nbytes, dtype=np.int64)
        return _linear(nprocs, src, dst, size, "LEX")
