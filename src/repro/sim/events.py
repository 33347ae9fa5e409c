"""Event queue for the discrete-event engine.

A min-heap of ``(time, seq, fn, args)`` entries: an event fires as
``fn(*args)``, so scheduling one allocates a tuple, not a closure.  The
monotonically increasing sequence number breaks ties deterministically
(FIFO among simultaneous events) and keeps ``fn`` out of comparisons.
Determinism matters: the whole reproduction is seeded and repeatable, so
two runs of the same schedule produce identical timelines.

The engine pushes through :meth:`EventQueue.push` and drains
:attr:`EventQueue.heap` with an inline ``heappop`` loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventQueue"]

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
