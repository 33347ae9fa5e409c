"""Overload-and-failure protection for the scheduling service.

``repro.service.Scheduler`` assumes a well-behaved world: workers never
die, queues never fill, and every caller is happy to wait forever.
This module is the armor the ROADMAP's "heavy traffic" scenarios
require, threaded through the scheduler's cold-build path:

* a **structured error taxonomy** — every guarded failure leaves the
  service as a :class:`ServiceError` subclass carrying machine-readable
  fields (and the request's :class:`~repro.service.tracing.RequestTrace`),
  never a bare timeout or a hung thread;
* **deadline budgets** (:class:`DeadlineExceeded`) — a request carries a
  wall-clock budget checked at admission, before each build attempt and
  across backoff sleeps, so a caller with an SLO gets a fast structured
  "no" instead of a slow nothing;
* **bounded retries with seeded-jitter exponential backoff**
  (:class:`BackoffPolicy`) — worker crashes and transient build faults
  are retried a bounded number of times with deterministic jitter, then
  failed over to an inline build;
* a **circuit breaker** (:class:`CircuitBreaker`) — repeated worker
  failures trip the breaker, degrading cold builds to the inline tier
  (slower, but alive) until a half-open probe on the respawned pool
  succeeds;
* **admission control and load shedding** (:class:`AdmissionGate`) — a
  bounded queue in front of the cold-build tier with three shedding
  policies (``reject-newest``, ``reject-oldest``, ``deadline``), the
  last dropping the waiter whose deadline is least likely to be met
  given the queue depth and the observed cold-build latency EWMA.

A scheduler built without a :class:`GuardConfig` runs the same code
under the fixed policy ``GuardConfig(max_retries=0)``: no deadline, no
admission gate, no retries, and the default breaker over the worker
tier.  Cache hits never consult the guard, and every policy serves the
same bytes when no fault fires.

All guard activity is observable through frozen ``service.guard.*``
metric names (see :data:`repro.obs.telemetry.METRIC_NAMES`) and through
new :class:`~repro.service.tracing.RequestTrace` fields (``retries``,
``shed_reason``, ``breaker_state``), and the whole layer is exercised
end-to-end by the seeded chaos campaign in :mod:`repro.service.chaos`
(``repro serve-chaos``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ServiceError",
    "DeadlineExceeded",
    "ServiceOverloaded",
    "TransientBuildError",
    "SHED_POLICIES",
    "BREAKER_STATES",
    "GuardConfig",
    "BackoffPolicy",
    "CircuitBreaker",
    "AdmissionGate",
    "DeadlineBudget",
]

#: Admission-queue shedding policies (see :class:`AdmissionGate`).
SHED_POLICIES = ("reject-newest", "reject-oldest", "deadline")

#: Circuit-breaker states, in gauge order: the ``service.guard.breaker_state``
#: gauge reports the index into this tuple.
BREAKER_STATES = ("closed", "open", "half-open")


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base of every structured failure the guarded service can raise.

    Each instance carries machine-readable fields (exposed via
    :meth:`to_json`) and, once it leaves
    :meth:`~repro.service.Scheduler.request`, the request's
    :class:`~repro.service.tracing.RequestTrace` in ``.trace``.  The
    ``counter`` class attribute names the per-request outcome counter
    (``service.guard.<counter>``) the scheduler bumps exactly once per
    failed request — the chaos harness reconciles those counters
    against observed outcomes.
    """

    #: ``service.guard.<counter>`` outcome counter; "" = not counted.
    counter = ""

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.fields: Dict[str, object] = fields
        #: Filled by Scheduler.request just before the error escapes.
        self.trace = None

    def clone(self) -> "ServiceError":
        """A fresh instance with the same message and fields.

        A single-flight owner's error object is shared by every waiter;
        each request must attach its *own* trace, so the scheduler
        clones before annotating.
        """
        dup = type(self)(str(self), **dict(self.fields))
        return dup

    def to_json(self) -> Dict[str, object]:
        """Flat, sorted-key JSON view for logs and the chaos report."""
        doc: Dict[str, object] = {"error": type(self).__name__,
                                  "message": str(self)}
        for k in sorted(self.fields):
            doc[k] = self.fields[k]
        return doc


class DeadlineExceeded(ServiceError):
    """The request's wall-clock budget ran out before a response.

    ``fields``: ``deadline`` (budget seconds), ``elapsed`` (seconds
    spent when the check fired), ``stage`` (``"admission"`` |
    ``"wait"`` | ``"build"`` | ``"backoff"``).
    """

    counter = "deadline_exceeded"


class ServiceOverloaded(ServiceError):
    """Admission control shed this request instead of queueing it.

    ``fields``: ``policy``, ``shed_reason`` (``"reject_newest"`` |
    ``"reject_oldest"`` | ``"deadline_earliest"`` |
    ``"deadline_hopeless"``), ``queue_depth``, ``capacity``.
    """

    counter = "shed"


class TransientBuildError(RuntimeError):
    """A retryable, non-crash build failure (chaos fault injection).

    Raised *inside* the build attempt; the scheduler's retry loop
    treats it exactly like a worker crash minus the pool respawn.  It
    is not a :class:`ServiceError` — it never escapes the retry loop
    except wrapped by exhaustion handling.
    """


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class GuardConfig:
    """Tunable knobs of the protection layer; validated on creation.

    ``deadline`` is the default per-request budget (seconds; ``None`` =
    unbounded, per-request ``deadline=`` overrides).  ``max_retries``
    bounds *re*-attempts after the first build try.  The backoff delay
    before retry ``k`` (1-based) is ``min(cap, base * factor**(k-1))``
    stretched by a seeded jitter of ±``jitter`` fraction.  The breaker
    trips to ``open`` after ``breaker_threshold`` consecutive worker
    failures, waits ``breaker_cooldown`` seconds, then lets exactly one
    half-open probe through.  ``admission_capacity`` bounds concurrent
    cold builds (``None`` disables admission control entirely);
    ``admission_queue`` bounds waiters beyond that, shed according to
    ``shed_policy``.  A build whose retries are exhausted always fails
    over to an inline build, so worker crashes never reach the caller.
    A scheduler given no config uses ``GuardConfig(max_retries=0)``.

    ``clock`` and ``sleep`` are injectable for deterministic tests; the
    defaults are :func:`time.monotonic` and :func:`time.sleep`.
    ``chaos_hook(stage, attempt)`` is the fault-injection port used by
    :mod:`repro.service.chaos`: it may return ``None`` or an
    ``(action, value)`` pair with action in ``{"kill_worker",
    "slow_build", "fail_transient"}``.
    """

    deadline: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_cap: float = 0.25
    backoff_jitter: float = 0.1
    seed: int = 0
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    admission_capacity: Optional[int] = None
    admission_queue: int = 8
    shed_policy: str = "reject-newest"
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    chaos_hook: Optional[
        Callable[[str, int], Optional[Tuple[str, float]]]
    ] = None

    def __post_init__(self):
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff base/cap must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )
        if self.admission_capacity is not None and self.admission_capacity < 1:
            raise ValueError(
                f"admission_capacity must be >= 1, got "
                f"{self.admission_capacity}"
            )
        if self.admission_queue < 0:
            raise ValueError(
                f"admission_queue must be >= 0, got {self.admission_queue}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; choose from "
                f"{SHED_POLICIES}"
            )


# ----------------------------------------------------------------------
# Deadline budgets
# ----------------------------------------------------------------------
class DeadlineBudget:
    """One request's wall-clock budget against an injectable clock.

    ``budget=None`` means unbounded: :meth:`remaining` returns ``None``
    and :meth:`check` never raises.
    """

    __slots__ = ("budget", "_t0", "_clock")

    def __init__(
        self,
        budget: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget
        self._clock = clock
        self._t0 = clock()

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> Optional[float]:
        """Seconds left, clamped at 0.0; ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0.0, self.budget - self.elapsed())

    def expired(self) -> bool:
        return self.budget is not None and self.elapsed() >= self.budget

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.budget:.6g}s exceeded at stage "
                f"{stage!r}",
                deadline=self.budget,
                elapsed=round(self.elapsed(), 6),
                stage=stage,
            )


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------
class BackoffPolicy:
    """Bounded exponential backoff with seeded, deterministic jitter.

    ``delay(k)`` for retry ``k`` (1-based) is ``min(cap, base *
    factor**(k-1))`` scaled by a uniform factor in ``[1 - jitter,
    1 + jitter]`` drawn from a private :class:`random.Random` — the
    same seed yields the same delay sequence, so a chaos run's timing
    story replays.
    """

    def __init__(
        self,
        base: float = 0.01,
        factor: float = 2.0,
        cap: float = 0.25,
        jitter: float = 0.1,
        seed: int = 0,
    ):
        self.base = base
        self.factor = factor
        self.cap = cap
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, config: GuardConfig) -> "BackoffPolicy":
        return cls(
            base=config.backoff_base,
            factor=config.backoff_factor,
            cap=config.backoff_cap,
            jitter=config.backoff_jitter,
            seed=config.seed,
        )

    def delay(self, attempt: int) -> float:
        """Jittered delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.cap, self.base * self.factor ** (attempt - 1))
        if not self.jitter:
            return raw
        with self._lock:
            u = self._rng.uniform(-1.0, 1.0)
        return raw * (1.0 + self.jitter * u)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Three-state breaker over the worker-pool tier.

    *closed* — worker builds allowed; ``failure_threshold`` consecutive
    failures trip it to *open*.  *open* — worker builds denied (cold
    builds degrade to the inline tier) until ``cooldown`` seconds pass,
    then the next :meth:`allow_worker` claims the single *half-open*
    probe slot.  Probe success closes the breaker; probe failure
    reopens it and restarts the cooldown.

    ``on_transition(state)`` fires on every state change and
    ``on_probe()`` whenever a half-open probe slot is claimed (the
    scheduler uses them to keep the ``service.guard.breaker_state``
    gauge and the trip/probe counters fresh).  Thread-safe; the clock
    is injectable.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str], None]] = None,
        on_probe: Optional[Callable[[], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._on_transition = on_transition
        self._on_probe = on_probe
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False
        #: Lifetime counts, exposed for reconciliation.
        self.trips = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Cooldown expiry is observed lazily: an open breaker *reports*
        # open until someone asks to build, at which point the probe
        # slot opens.  State reads must reflect that the gate would now
        # let a probe through.
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            return "half-open"
        return self._state

    def _transition(self, state: str) -> None:
        self._state = state
        if self._on_transition is not None:
            self._on_transition(state)

    def allow_worker(self) -> bool:
        """May the next cold build use the worker pool right now?"""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                self._transition("half-open")
            # half-open: exactly one in-flight probe.
            if self._probing:
                return False
            self._probing = True
            self.probes += 1
            if self._on_probe is not None:
                self._on_probe()
            return True

    def record_success(self) -> None:
        """A worker build completed; close the breaker if probing."""
        with self._lock:
            self._consecutive = 0
            if self._state == "half-open":
                self._probing = False
                self._transition("closed")

    def record_failure(self) -> None:
        """A worker build crashed/failed; maybe trip or reopen."""
        with self._lock:
            if self._state == "half-open":
                self._probing = False
                self._opened_at = self._clock()
                self._consecutive = 0
                self._transition("open")
                self.trips += 1
                return
            self._consecutive += 1
            if (
                self._state == "closed"
                and self._consecutive >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._consecutive = 0
                self._transition("open")
                self.trips += 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _Waiter:
    """One queued request: its deadline, arrival order, and verdict."""

    __slots__ = ("seq", "deadline_abs", "state", "shed_reason")

    def __init__(self, seq: int, deadline_abs: float):
        self.seq = seq
        #: Absolute deadline on the gate's clock; +inf when unbounded.
        self.deadline_abs = deadline_abs
        #: "waiting" -> "admitted" | "shed".
        self.state = "waiting"
        self.shed_reason = ""


@dataclass
class _GateStats:
    """Point-in-time gate observability (for traces and tests)."""

    active: int = 0
    queued: int = 0
    ewma_build_seconds: float = 0.0
    admitted: int = 0
    shed: int = 0


class AdmissionGate:
    """Bounded admission in front of the cold-build tier.

    At most ``capacity`` requests build concurrently; up to
    ``queue_limit`` more wait.  A request arriving past both bounds
    triggers the shedding policy:

    * ``reject-newest`` — the arriving request is shed;
    * ``reject-oldest`` — the longest-waiting request is shed and the
      arrival takes its place (freshest-work-first under overload);
    * ``deadline`` — among the waiters *and* the arrival, the request
      with the earliest absolute deadline is shed (it is the least
      likely to be served in time; unbounded requests never lose this
      comparison).  Additionally, an arriving request whose remaining
      budget cannot cover the expected queue wait — ``(queue_depth + 1)
      * EWMA(cold-build seconds)`` — is shed immediately as
      ``deadline_hopeless`` rather than queued to die slowly.

    The EWMA of observed cold-build latency is fed by :meth:`release`,
    which also hands the freed slot to the oldest waiter (FIFO service
    order; shedding never reorders the survivors).
    """

    def __init__(
        self,
        capacity: int,
        queue_limit: int = 8,
        policy: str = "reject-newest",
        clock: Callable[[], float] = time.monotonic,
        ewma_alpha: float = 0.3,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {SHED_POLICIES}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.policy = policy
        self._clock = clock
        self._alpha = ewma_alpha
        self._cv = threading.Condition()
        self._active = 0
        self._queue: List[_Waiter] = []
        self._seq = 0
        self._ewma = 0.0
        self._admitted = 0
        self._shed = 0

    # ------------------------------------------------------------------
    def stats(self) -> _GateStats:
        with self._cv:
            return _GateStats(
                active=self._active,
                queued=len(self._queue),
                ewma_build_seconds=self._ewma,
                admitted=self._admitted,
                shed=self._shed,
            )

    @property
    def ewma_build_seconds(self) -> float:
        with self._cv:
            return self._ewma

    def _overloaded(
        self, reason: str, queue_depth: int
    ) -> ServiceOverloaded:
        self._shed += 1
        return ServiceOverloaded(
            f"admission queue full (policy {self.policy}, "
            f"reason {reason})",
            policy=self.policy,
            shed_reason=reason,
            queue_depth=queue_depth,
            capacity=self.capacity,
        )

    def _shed_waiter(self, waiter: _Waiter, reason: str) -> None:
        waiter.state = "shed"
        waiter.shed_reason = reason
        self._queue.remove(waiter)

    # ------------------------------------------------------------------
    def acquire(self, budget: Optional[DeadlineBudget] = None) -> None:
        """Block until admitted; raise on shed or deadline expiry.

        Raises :class:`ServiceOverloaded` when this request (now or
        later, by eviction) loses to the shedding policy, and
        :class:`DeadlineExceeded` when the budget expires while queued.
        """
        remaining = budget.remaining() if budget is not None else None
        deadline_abs = (
            self._clock() + remaining
            if remaining is not None
            else float("inf")
        )
        with self._cv:
            if self._active < self.capacity and not self._queue:
                self._active += 1
                self._admitted += 1
                return
            depth = len(self._queue)
            if self.policy == "deadline" and remaining is not None:
                expected = (depth + 1) * self._ewma
                if self._ewma > 0.0 and expected > remaining:
                    raise self._overloaded("deadline_hopeless", depth)
            if depth >= self.queue_limit:
                if self.policy == "reject-newest" or not self._queue:
                    # With an empty (zero-length) queue there is nobody
                    # to evict in the arrival's favor — shed the arrival
                    # whatever the policy says.
                    raise self._overloaded("reject_newest", depth)
                if self.policy == "reject-oldest":
                    self._shed_waiter(self._queue[0], "reject_oldest")
                    self._cv.notify_all()
                else:  # deadline: the earliest absolute deadline loses
                    evict = min(self._queue, key=lambda w: w.deadline_abs)
                    if deadline_abs <= evict.deadline_abs:
                        # The arrival itself is the most hopeless
                        # (ties break against the newcomer).
                        raise self._overloaded("deadline_earliest", depth)
                    self._shed_waiter(evict, "deadline_earliest")
                    self._cv.notify_all()
            me = _Waiter(self._seq, deadline_abs)
            self._seq += 1
            self._queue.append(me)
            while me.state == "waiting":
                timeout = None
                if budget is not None:
                    rem = budget.remaining()
                    if rem is not None:
                        if rem <= 0.0:
                            self._queue.remove(me)
                            self._cv.notify_all()
                            budget.check("admission")
                        timeout = rem
                self._cv.wait(timeout=timeout)
                if me.state == "waiting" and budget is not None:
                    rem = budget.remaining()
                    if rem is not None and rem <= 0.0:
                        self._queue.remove(me)
                        self._cv.notify_all()
                        budget.check("admission")
            if me.state == "shed":
                raise self._overloaded(me.shed_reason, len(self._queue))
            self._admitted += 1

    def release(self, build_seconds: Optional[float] = None) -> None:
        """Return a slot; feed the latency EWMA; admit the next waiter."""
        with self._cv:
            self._active -= 1
            if build_seconds is not None and build_seconds >= 0.0:
                self._ewma = (
                    build_seconds
                    if self._ewma == 0.0
                    else (1 - self._alpha) * self._ewma
                    + self._alpha * build_seconds
                )
            while self._active < self.capacity and self._queue:
                nxt = self._queue.pop(0)
                nxt.state = "admitted"
                self._active += 1
            self._cv.notify_all()
