"""Span tracing: labeled intervals on the host clock and the sim clock.

Two kinds of interval live in one :class:`Tracer`:

* **Spans** — wall-clock intervals opened with the :meth:`Tracer.span`
  context manager around host-side work (schedule construction, a
  backend run).  They nest; each span records its parent, so a caller
  can attribute a workload's wall time to a layer (``build`` vs
  ``execute`` vs ``sim``) instead of a whole run.
* **Rank ops** — simulated-time intervals emitted by the discrete-event
  engine (:mod:`repro.sim.engine`), one per blocking request a rank
  issues.  Per rank they tile ``[0, finish_time]`` exactly (generators
  run in zero simulated time between requests), which is what makes the
  critical-path walk (:mod:`repro.obs.critpath`) sum to the makespan
  bit-for-bit.  Ops that ended because a message was delivered carry a
  *cause* dict naming the message and its rendezvous timestamps.

Identifiers are sequence numbers, never wall-clock or random, so a
replayed run emits byte-identical sim-time records.  When no tracer is
installed the module-level helpers (:func:`repro.obs.span`,
:func:`repro.obs.count`) are a single ``None`` check — instrumented hot
paths cost nothing in production runs.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .metrics import LinkUtilization, MetricsRegistry

__all__ = ["Span", "OpRecord", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One closed wall-clock interval (host-side work)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class OpRecord:
    """One blocking request on one rank's simulated-time line.

    ``cause`` explains what ended the op: a ``{"kind": "message", ...}``
    dict with the rendezvous timestamps for point-to-point completions,
    ``{"kind": "retry", ...}`` for a drop timeout, ``{"kind":
    "barrier"|"bcast"|"reduce"}`` for collectives, ``None`` for local
    work (delays) and trivially-complete waits.
    """

    rank: int
    kind: str
    start: float
    end: float = 0.0
    detail: str = ""
    cause: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, rank ops, metrics and link samples for one run.

    ``clock`` is only consulted for wall-clock spans; rank ops receive
    explicit simulated timestamps from the engine, so a tracer attached
    to a simulation perturbs nothing and records deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self.spans: List[Span] = []
        #: Open-span stack: (span_id, name, category, start, attrs).
        self._stack: List[tuple] = []
        #: Wall seconds per category, counting only outermost spans of
        #: each category (a build span inside a build span adds nothing).
        self._category_seconds: Dict[str, float] = {}
        self.rank_ops: Dict[int, List[OpRecord]] = {}
        self._open_ops: Dict[int, OpRecord] = {}
        self.metrics = MetricsRegistry()
        #: Per-link utilization time series; attached by the engine.
        self.link_util: Optional[LinkUtilization] = None
        #: Free-form run metadata (makespan, nprocs, algorithm, seed...).
        self.meta: Dict[str, Any] = {}

    # -- wall-clock spans ----------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "misc", **attrs: Any):
        span_id = next(self._ids)
        parent_id = self._stack[-1][0] if self._stack else None
        start = self._clock()
        self._stack.append((span_id, name, category, start, attrs))
        try:
            yield span_id
        finally:
            self._stack.pop()
            end = self._clock()
            self.spans.append(
                Span(span_id, parent_id, name, category, start, end, attrs)
            )
            if not any(frame[2] == category for frame in self._stack):
                self._category_seconds[category] = (
                    self._category_seconds.get(category, 0.0) + (end - start)
                )

    def category_seconds(self) -> Dict[str, float]:
        """Wall seconds per span category (outermost spans only)."""
        return dict(self._category_seconds)

    def record_external(
        self, name: str, category: str, duration: float, **attrs: Any
    ) -> None:
        """Record a closed span imported from another process.

        Worker-pool builds trace in the child and ship span deltas back
        with the result (:mod:`repro.service.scheduler`); the parent
        replays them here.  The span is parented under the currently
        open span and backdated to end *now* — child wall clocks are
        not comparable to ours, only the duration travels.  Category
        seconds accrue unless an enclosing span of the same category is
        already counting this interval.
        """
        span_id = next(self._ids)
        parent_id = self._stack[-1][0] if self._stack else None
        end = self._clock()
        self.spans.append(
            Span(span_id, parent_id, name, category, end - duration, end, attrs)
        )
        if not any(frame[2] == category for frame in self._stack):
            self._category_seconds[category] = (
                self._category_seconds.get(category, 0.0) + duration
            )

    # -- simulated-time rank ops (engine instrumentation) --------------
    def op_begin(self, rank: int, kind: str, t: float, detail: str = "") -> None:
        self._open_ops[rank] = OpRecord(rank=rank, kind=kind, start=t, detail=detail)

    def op_end(
        self, rank: int, t: float, cause: Optional[Dict[str, Any]] = None
    ) -> None:
        op = self._open_ops.pop(rank, None)
        if op is None:
            return  # a rank's very first resume has no op open
        op.end = t
        op.cause = cause
        self.rank_ops.setdefault(rank, []).append(op)

    def total_ops(self) -> int:
        return sum(len(ops) for ops in self.rank_ops.values())
