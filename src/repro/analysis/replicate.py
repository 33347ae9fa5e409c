"""Process-parallel replication of deterministic simulation runs.

The simulator is deterministic by contract: the same schedule on the
same machine configuration produces a byte-identical event trace, in
the compiled kernel and in the NumPy fallback.  That contract is what makes
replication embarrassingly parallel — N replicas of a run (or N
distinct workloads) can fan out over a process pool and the digests
must still agree, so the parallel harnesses (``perf --jobs``,
``chaos --jobs``, the determinism smoke tests) render output identical
to a sequential run.

This module is the thin waist between those harnesses and
:class:`repro.service.pool.WorkerPool`:

* :func:`replicate` maps a picklable worker over a spec list with
  ``jobs`` processes (``jobs=0`` = inline, byte-for-byte sequential);
* :func:`run_digest` is the canonical worker — build one exchange
  schedule from a ``(algorithm, nprocs, nbytes)`` spec, execute it with
  tracing, and return the trace digest plus headline numbers;
* :func:`digest_result` condenses one execution into a SHA-256 the
  determinism tests can compare across processes, kernels and drain
  modes.

Workers rebuild everything from the spec tuple: nothing is pickled but
small tuples and result dicts, and a forked worker shares no mutable
state with the parent.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..machine import MachineConfig
from ..schedules import (
    balanced_exchange,
    execute_schedule,
    pairwise_exchange,
    recursive_exchange,
)
from ..service.pool import WorkerPool

__all__ = ["EXCHANGE_BUILDERS", "digest_result", "replicate", "run_digest"]

T = TypeVar("T")
R = TypeVar("R")

#: Exchange builders addressable by spec name (picklable indirection:
#: workers receive the *name*, not a closure).
EXCHANGE_BUILDERS = {
    "pex": pairwise_exchange,
    "bex": balanced_exchange,
    "rex": recursive_exchange,
}


def digest_result(res) -> str:
    """SHA-256 digest of one traced execution's observable behavior.

    Covers the full event stream plus the exact (``repr``-level, i.e.
    every bit of every float) makespan, message count, total wait time
    and finish times — the same surface the byte-identity regression
    oracle pins.  Requires the run to have been traced
    (``execute_schedule(..., trace=True)``).
    """
    sim = res.sim
    h = hashlib.sha256()
    h.update(sim.trace.event_stream().encode())
    h.update(repr(sim.makespan).encode())
    h.update(str(sim.message_count).encode())
    h.update(repr(sum(sim.wait_times)).encode())
    h.update(",".join(repr(f) for f in sim.finish_times).encode())
    return h.hexdigest()


def run_digest(spec: Tuple[str, int, int]) -> Dict[str, object]:
    """Worker: execute one ``(algorithm, nprocs, nbytes)`` exchange.

    Module-level and closure-free so it survives pickling into a worker
    process.  Returns the digest plus the headline numbers a caller
    might want to assert on without re-running.
    """
    algo, nprocs, nbytes = spec
    try:
        build = EXCHANGE_BUILDERS[algo]
    except KeyError:
        raise ValueError(
            f"unknown exchange algorithm {algo!r}; choose from "
            f"{', '.join(sorted(EXCHANGE_BUILDERS))}"
        ) from None
    res = execute_schedule(build(nprocs, nbytes), MachineConfig(nprocs), trace=True)
    return {
        "spec": spec,
        "digest": digest_result(res),
        "makespan": res.sim.makespan,
        "messages": res.sim.message_count,
    }


def replicate(
    fn: Callable[[T], R],
    specs: Sequence[T],
    jobs: int = 0,
    progress: Optional[Callable[[R], None]] = None,
) -> List[R]:
    """Run ``fn`` over ``specs`` with ``jobs`` worker processes.

    Results come back in input order regardless of completion order;
    ``jobs=0`` executes inline (no pickling, no subprocesses).  ``fn``
    must be module-level picklable when ``jobs > 0`` —
    :func:`run_digest` is the canonical choice.
    """
    with WorkerPool(jobs) as pool:
        return pool.map_ordered(fn, specs, progress=progress)
