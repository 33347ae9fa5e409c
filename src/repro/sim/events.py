"""Event queue and drain loop of the discrete-event engine.

A min-heap of ``(time, seq, fn, args)`` entries: an event fires as
``fn(*args)``, so scheduling one allocates a tuple, not a closure.  The
monotonically increasing sequence number breaks ties deterministically
(FIFO among simultaneous events) and keeps ``fn`` out of comparisons.
Determinism matters: the whole reproduction is seeded and repeatable, so
two runs of the same schedule produce identical timelines.

There are two implementations of one contract: :class:`EventQueue`
below, the pure-Python reference, and ``EventQueue`` in the compiled
kernel extension (:mod:`repro.machine._fastfill`), which keeps the heap
in a C array and runs the drain loop in C.  :func:`event_queue` is the
one place that picks between them: the compiled type when the kernel is
loaded, this class otherwise (``REPRO_NO_FASTFILL=1``), as the network
falls back to NumPy.  The engine pushes through ``push`` and hands
control to ``run(engine)``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..machine._fastfill import kernel

__all__ = ["EventQueue", "event_queue"]

#: Events closer together than this are treated as simultaneous (the
#: compiled queue hard-codes the same value as ``TIME_ATOL``).
_TIME_ATOL = 1e-12

#: One heap entry: ``(time, seq, fn, args)``.
Event = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class EventQueue:
    """Min-heap of timestamped calls with stable FIFO tie-breaking."""

    __slots__ = ("heap", "_seq")

    def __init__(self) -> None:
        self.heap: List[Event] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to fire at simulated ``time``."""
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        heapq.heappush(self.heap, (time, next(self._seq), fn, args))

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or None when empty."""
        return self.heap[0][0] if self.heap else None

    def pop(self) -> Tuple[float, Callable[..., None], Tuple[Any, ...]]:
        """Remove and return the earliest ``(time, fn, args)``."""
        time, _, fn, args = heapq.heappop(self.heap)
        return time, fn, args

    def run(self, engine: Any) -> None:
        """Drain every event, instant by instant, on behalf of ``engine``.

        An instant opens at the earliest pending time (``engine.now``
        advances only forward; an event more than 1e-9 s in the past is
        an error) and drains every event within ``_TIME_ATOL`` of it,
        cascades scheduled by the handlers included, in ``(time, seq)``
        order.  After each instant, ``engine._arm_network_event()`` runs
        if ``engine._net_changed`` is set, so a synchronized wave costs
        one rate reallocation.  Nothing but this loop writes
        ``engine.now``.  A handler's exception propagates; the events
        still queued stay queued.
        """
        heap = self.heap
        pop = heapq.heappop
        now = engine.now
        while heap:
            t = heap[0][0]
            if t < now - 1e-9:
                raise RuntimeError(f"event in the past: {t} < {now}")
            if t > now:
                engine.now = now = t
            threshold = now + _TIME_ATOL
            while heap and heap[0][0] <= threshold:
                ev = pop(heap)
                ev[2](*ev[3])
            if engine._net_changed:
                engine._arm_network_event()


def event_queue() -> Any:
    """A fresh event queue: compiled when the kernel is loaded."""
    fast = kernel()
    return EventQueue() if fast is None else fast.EventQueue()
