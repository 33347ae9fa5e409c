"""repro.service — scheduling as a service.

The paper builds each schedule once; a production front end builds them
millions of times.  This package wraps schedule construction in a
serving layer:

* :mod:`repro.service.keys` — content addressing with canonical-form
  pattern hashing (relabel-isomorphic requests share an entry);
* :mod:`repro.service.store` — thread-safe in-memory + JSON-on-disk
  :class:`ScheduleStore` of serialized schedules;
* :mod:`repro.service.scheduler` — the :class:`Scheduler` service:
  exact hits, isomorphic relabel hits, warm-start repair on near-miss
  patterns, single-flight dedup, and a process-pool cold-build tier
  (plus :func:`drift_variant`, the one-cell near-miss warm start serves);
* :mod:`repro.service.pool` — the shared :class:`WorkerPool` (also the
  engine of ``repro chaos --jobs``);
* :mod:`repro.service.guard` — reliability guardrails: per-request
  deadline budgets, seeded-jitter retry backoff, a worker circuit
  breaker, and admission control / load shedding;
* :mod:`repro.service.chaos` — the seeded ``serve-chaos`` fault
  campaign exercising all of the above.

Quick start::

    from repro.service import Scheduler
    from repro.schedules import CommPattern

    sched = Scheduler()
    resp = sched.request(CommPattern.synthetic(16, 0.4, 512), "greedy")
    resp.source      # "cold" the first time, "hit" after
"""

from .chaos import (
    SERVICE_CHAOS_SCHEMA,
    ServiceChaosRun,
    render_service_chaos,
    run_service_campaign,
    write_service_chaos,
)
from .guard import (
    BREAKER_STATES,
    SHED_POLICIES,
    AdmissionGate,
    BackoffPolicy,
    CircuitBreaker,
    DeadlineBudget,
    DeadlineExceeded,
    GuardConfig,
    ServiceError,
    ServiceOverloaded,
    TransientBuildError,
)
from .keys import (
    KEY_VERSION,
    ScheduleKey,
    canonical_form,
    canonical_order,
    derive_key,
    machine_fingerprint,
    params_fingerprint,
    pattern_digest,
)
from .pool import WorkerPool
from .scheduler import (
    Scheduler,
    ServiceResponse,
    adapt_schedule,
    drift_variant,
)
from .store import ScheduleStore, StoreEntry
from .tracing import RequestTrace

__all__ = [
    "SERVICE_CHAOS_SCHEMA",
    "ServiceChaosRun",
    "render_service_chaos",
    "run_service_campaign",
    "write_service_chaos",
    "BREAKER_STATES",
    "SHED_POLICIES",
    "AdmissionGate",
    "BackoffPolicy",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlineExceeded",
    "GuardConfig",
    "ServiceError",
    "ServiceOverloaded",
    "TransientBuildError",
    "KEY_VERSION",
    "ScheduleKey",
    "canonical_form",
    "canonical_order",
    "derive_key",
    "machine_fingerprint",
    "params_fingerprint",
    "pattern_digest",
    "WorkerPool",
    "Scheduler",
    "ServiceResponse",
    "RequestTrace",
    "adapt_schedule",
    "drift_variant",
    "ScheduleStore",
    "StoreEntry",
]
