"""Per-request tracing for the scheduling service.

Every :meth:`repro.service.Scheduler.request` fills one
:class:`RequestTrace`: which tier served it, how long each stage took,
and whether it coalesced onto another thread's build.  The scheduler
attaches the trace to the :class:`~repro.service.ServiceResponse` and
feeds the stage timings into tier-labeled histograms
(``service.latency.<tier>``, ``service.build_seconds``, ...), so
``Scheduler.metrics_snapshot()`` and `repro metrics` both read straight
from the registry with no extra bookkeeping in callers.

The trace is carried through the serving tiers in a ``threading.local``
slot on the scheduler — the tier methods are deep call chains (the
single-flight path re-enters the cached tiers), and threading the
object through every signature would couple each tier to the
observability layer instead of letting stages record into whatever
trace is current.  One request = one thread = one trace; concurrent
requests never share a slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["RequestTrace"]


@dataclass
class RequestTrace:
    """Stage timings and provenance for one served request.

    All durations are wall-clock seconds on the calling thread.  Stages
    a request never entered stay 0.0 — an exact hit has no build or
    single-flight time, and only worker-pool builds (``workers > 0``)
    have ``worker_build_seconds``.
    """

    #: "hit" | "isomorphic" | "warm" | "cold" (set when the response is
    #: finalized).
    source: str = ""
    #: End-to-end request latency.
    latency: float = 0.0
    #: Time spent waiting on another thread's in-flight build.
    singleflight_wait: float = 0.0
    #: Parent-side cold-build time, including the pool round-trip.
    build_seconds: float = 0.0
    #: Child-process build-span seconds shipped back with the result
    #: (0.0 for inline builds — those are already parent time).
    worker_build_seconds: float = 0.0
    #: Total lint/validation time across tiers for this request.
    lint_seconds: float = 0.0
    #: True when this request coalesced onto another thread's build.
    deduped: bool = False
    #: Warm-start edit distance (0 for other tiers).
    edit_distance: int = 0
    #: Deadline budget in seconds (0.0 when the request had none).
    deadline: float = 0.0
    #: Time spent queued at the admission gate before the cold build.
    admission_wait: float = 0.0
    #: Build retries actually performed (crash or transient failure).
    retries: int = 0
    #: Total backoff sleep between retries.
    backoff_seconds: float = 0.0
    #: Worker-process crashes this request's build absorbed.
    worker_crashes: int = 0
    #: True when the worker tier was abandoned and the schedule was
    #: rebuilt inline so waiters still got a result.
    inline_failover: bool = False
    #: Why admission shed this request ("" when it was not shed).
    shed_reason: str = ""
    #: Circuit-breaker state observed after the cold build this request
    #: owned, or when it failed ("" for requests served without a build).
    breaker_state: str = ""

    def to_json(self) -> Dict[str, object]:
        """Flat JSON view (stable key order) for logs and tests."""
        return {
            "source": self.source,
            "latency": self.latency,
            "singleflight_wait": self.singleflight_wait,
            "build_seconds": self.build_seconds,
            "worker_build_seconds": self.worker_build_seconds,
            "lint_seconds": self.lint_seconds,
            "deduped": self.deduped,
            "edit_distance": self.edit_distance,
            "deadline": self.deadline,
            "admission_wait": self.admission_wait,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "worker_crashes": self.worker_crashes,
            "inline_failover": self.inline_failover,
            "shed_reason": self.shed_reason,
            "breaker_state": self.breaker_state,
        }
