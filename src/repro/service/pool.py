"""Process-pool worker tier with an inline fallback.

One helper serves every process-parallel consumer in the repository:
the scheduling service's cold-build tier and the chaos campaign's
``--jobs N`` replication.  The contract is deliberately narrow:

* ``jobs == 0`` (the default) executes everything inline in the calling
  process — byte-for-byte the sequential behavior, no pickling, no
  subprocesses, deterministic under any tracer;
* ``jobs >= 1`` fans work out over a :class:`ProcessPoolExecutor`, and
  :meth:`WorkerPool.map_ordered` always returns results in *input*
  order, so a parallel campaign renders the identical report.

Worker functions must be module-level (picklable) and pure: everything
they need travels in the argument tuple, nothing through module state
mutated by the parent (a forked worker may or may not see it).
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

__all__ = ["WorkerPool"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """Bounded process pool; ``jobs=0`` degenerates to inline execution."""

    def __init__(self, jobs: int = 0):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        if self.jobs > 0:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            )
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def respawn(self) -> None:
        """Replace the executor after a worker crash.

        A :class:`concurrent.futures.process.BrokenProcessPool` poisons
        the whole executor — every subsequent submit fails instantly.
        Recovery is a swap: discard the broken executor without waiting
        on it (its workers are already dead) and stand up a fresh one.
        The new executor is in place before the old one is dropped: a
        concurrent :meth:`submit` must never see ``None`` and run its
        job inline in the parent.  Inline pools (``jobs == 0``) have no
        executor and nothing to do.
        """
        if self.jobs <= 0:
            return
        old = self._executor
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs
        )
        if old is not None:
            old.shutdown(wait=False)

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., R], *args) -> "concurrent.futures.Future[R]":
        """One task; inline mode returns an already-resolved future."""
        if self._executor is not None:
            return self._executor.submit(fn, *args)
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        return future

    def map_ordered(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        progress: Optional[Callable[[R], None]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results in input order.

        ``progress`` is invoked once per result *in input order* (even
        when workers finish out of order), so observable output is
        identical at any job count.
        """
        if self._executor is None:
            out: List[R] = []
            for item in items:
                r = fn(item)
                if progress is not None:
                    progress(r)
                out.append(r)
            return out
        futures = [self._executor.submit(fn, item) for item in items]
        results: List[R] = []
        for f in futures:
            r = f.result()
            if progress is not None:
                progress(r)
            results.append(r)
        return results
