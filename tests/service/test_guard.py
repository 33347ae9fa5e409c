"""Guard primitives: taxonomy, budgets, backoff, breaker, admission."""

import threading

import pytest

from repro.service.guard import (
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
)


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestErrorTaxonomy:
    def test_fields_and_json_view(self):
        err = DeadlineExceeded(
            "too slow", deadline=0.5, elapsed=0.7, stage="build"
        )
        doc = err.to_json()
        assert doc["error"] == "DeadlineExceeded"
        assert doc["message"] == "too slow"
        assert doc["stage"] == "build"
        # fields are sorted after the fixed error/message head
        assert list(doc) == ["error", "message", "deadline", "elapsed", "stage"]

    def test_clone_is_a_private_instance(self):
        err = ServiceOverloaded("full", policy="reject-newest", queue_depth=3)
        err.trace = object()
        dup = err.clone()
        assert type(dup) is ServiceOverloaded
        assert str(dup) == str(err)
        assert dup.fields == err.fields
        assert dup.fields is not err.fields
        assert dup.trace is None  # each request annotates its own clone

    def test_outcome_counter_names(self):
        assert DeadlineExceeded.counter == "deadline_exceeded"
        assert ServiceOverloaded.counter == "shed"
        assert ServiceError.counter == ""

    def test_all_structured_errors_are_service_errors(self):
        for cls in (DeadlineExceeded, ServiceOverloaded):
            assert issubclass(cls, ServiceError)
            assert issubclass(cls, RuntimeError)


class TestGuardConfig:
    def test_defaults_validate(self):
        GuardConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.0},
            {"breaker_threshold": 0},
            {"breaker_cooldown": -1.0},
            {"admission_capacity": 0},
            {"admission_queue": -1},
            {"shed_policy": "coin-flip"},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestDeadlineBudget:
    def test_unbounded_never_expires(self):
        clock = FakeClock()
        budget = DeadlineBudget(None, clock=clock)
        clock.advance(1e9)
        assert budget.remaining() is None
        assert not budget.expired()
        budget.check("build")  # no raise

    def test_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        budget = DeadlineBudget(1.0, clock=clock)
        assert budget.remaining() == 1.0
        clock.advance(0.4)
        assert budget.remaining() == pytest.approx(0.6)
        assert not budget.expired()
        clock.advance(0.6)
        assert budget.remaining() == 0.0
        assert budget.expired()

    def test_check_raises_structured_error_with_stage(self):
        clock = FakeClock()
        budget = DeadlineBudget(0.5, clock=clock)
        clock.advance(0.7)
        with pytest.raises(DeadlineExceeded) as exc:
            budget.check("admission")
        assert exc.value.fields["stage"] == "admission"
        assert exc.value.fields["deadline"] == 0.5
        assert exc.value.fields["elapsed"] == pytest.approx(0.7)


class TestBackoffPolicy:
    def test_same_seed_same_sequence(self):
        a = BackoffPolicy(seed=42)
        b = BackoffPolicy(seed=42)
        assert [a.delay(k) for k in range(1, 6)] == [
            b.delay(k) for k in range(1, 6)
        ]

    def test_different_seed_different_sequence(self):
        a = BackoffPolicy(seed=1)
        b = BackoffPolicy(seed=2)
        assert [a.delay(k) for k in range(1, 6)] != [
            b.delay(k) for k in range(1, 6)
        ]

    def test_exponential_growth_within_jitter_bounds(self):
        p = BackoffPolicy(base=0.01, factor=2.0, cap=1.0, jitter=0.1, seed=0)
        for k in range(1, 6):
            raw = 0.01 * 2.0 ** (k - 1)
            d = p.delay(k)
            assert raw * 0.9 <= d <= raw * 1.1

    def test_cap_bounds_the_raw_delay(self):
        p = BackoffPolicy(base=0.01, factor=10.0, cap=0.05, jitter=0.0)
        assert p.delay(10) == 0.05

    def test_zero_jitter_is_exact(self):
        p = BackoffPolicy(base=0.01, factor=2.0, cap=1.0, jitter=0.0)
        assert p.delay(3) == pytest.approx(0.04)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            BackoffPolicy().delay(0)

    def test_from_config_copies_every_knob(self):
        cfg = GuardConfig(
            backoff_base=0.002,
            backoff_factor=3.0,
            backoff_cap=0.1,
            backoff_jitter=0.2,
            seed=7,
        )
        p = BackoffPolicy.from_config(cfg)
        q = BackoffPolicy(base=0.002, factor=3.0, cap=0.1, jitter=0.2, seed=7)
        assert [p.delay(k) for k in range(1, 4)] == [
            q.delay(k) for k in range(1, 4)
        ]


class TestCircuitBreaker:
    def test_state_tuple_is_the_gauge_order(self):
        assert BREAKER_STATES == ("closed", "open", "half-open")

    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
        assert br.state == "closed"
        for _ in range(2):
            br.record_failure()
        assert br.state == "closed"
        assert br.allow_worker()
        br.record_failure()
        assert br.state == "open"
        assert br.trips == 1
        assert not br.allow_worker()

    def test_success_resets_the_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_cooldown_opens_a_single_probe_slot(self):
        clock = FakeClock()
        probes = []
        br = CircuitBreaker(
            failure_threshold=1,
            cooldown=5.0,
            clock=clock,
            on_probe=lambda: probes.append(1),
        )
        br.record_failure()
        assert not br.allow_worker()
        clock.advance(5.0)
        assert br.state == "half-open"
        assert br.allow_worker()  # claims the probe slot
        assert not br.allow_worker()  # slot is taken
        assert br.probes == 1
        assert probes == [1]

    def test_probe_success_closes(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        br.record_failure()
        clock.advance(1.0)
        assert br.allow_worker()
        br.record_success()
        assert br.state == "closed"
        assert br.allow_worker()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
        br.record_failure()
        clock.advance(1.0)
        assert br.allow_worker()
        br.record_failure()
        assert br.state == "open"
        assert br.trips == 2
        assert not br.allow_worker()  # cooldown restarted
        clock.advance(1.0)
        assert br.allow_worker()  # next probe

    def test_transition_callback_sees_every_state(self):
        clock = FakeClock()
        seen = []
        br = CircuitBreaker(
            failure_threshold=1,
            cooldown=1.0,
            clock=clock,
            on_transition=seen.append,
        )
        br.record_failure()
        clock.advance(1.0)
        br.allow_worker()
        br.record_success()
        assert seen == ["open", "half-open", "closed"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestAdmissionGate:
    def test_policy_tuple(self):
        assert SHED_POLICIES == ("reject-newest", "reject-oldest", "deadline")

    def test_admits_up_to_capacity_without_queueing(self):
        gate = AdmissionGate(capacity=2, queue_limit=0)
        gate.acquire()
        gate.acquire()
        stats = gate.stats()
        assert stats.active == 2
        assert stats.admitted == 2

    def test_reject_newest_sheds_the_arrival(self):
        gate = AdmissionGate(capacity=1, queue_limit=0)
        gate.acquire()
        with pytest.raises(ServiceOverloaded) as exc:
            gate.acquire()
        assert exc.value.fields["shed_reason"] == "reject_newest"
        assert exc.value.fields["capacity"] == 1
        assert gate.stats().shed == 1

    def test_release_admits_the_oldest_waiter_fifo(self):
        gate = AdmissionGate(capacity=1, queue_limit=4)
        gate.acquire()
        order = []
        threads = []

        def waiter(tag):
            gate.acquire()
            order.append(tag)

        for tag in ("a", "b"):
            t = threading.Thread(target=waiter, args=(tag,))
            t.start()
            threads.append(t)
            # Deterministic arrival order: wait for the queue to grow.
            while gate.stats().queued < len(threads):
                pass
        # One slot at a time: the first release must admit "a" alone.
        # (Two back-to-back releases wake both waiters at once, and
        # their appends could then land in either order.)
        gate.release(build_seconds=0.01)
        threads[0].join(timeout=10)
        assert order == ["a"]
        gate.release(build_seconds=0.01)
        threads[1].join(timeout=10)
        assert order == ["a", "b"]
        assert gate.ewma_build_seconds > 0

    def test_reject_oldest_evicts_the_head_for_the_arrival(self):
        gate = AdmissionGate(capacity=1, queue_limit=1, policy="reject-oldest")
        gate.acquire()
        failures = []

        def doomed():
            try:
                gate.acquire()
            except ServiceOverloaded as exc:
                failures.append(exc)

        t = threading.Thread(target=doomed)
        t.start()
        while gate.stats().queued < 1:
            pass
        # Arrival over a full queue evicts the oldest waiter.
        acquired = []

        def newcomer():
            gate.acquire()
            acquired.append(True)

        t2 = threading.Thread(target=newcomer)
        t2.start()
        t.join(timeout=10)
        assert failures and failures[0].fields["shed_reason"] == "reject_oldest"
        gate.release()
        t2.join(timeout=10)
        assert acquired == [True]

    def test_deadline_policy_sheds_the_earliest_deadline(self):
        clock = FakeClock()
        gate = AdmissionGate(
            capacity=1, queue_limit=1, policy="deadline", clock=clock
        )
        gate.acquire()
        failures = []

        def doomed():
            try:
                gate.acquire(DeadlineBudget(0.1, clock=clock))
            except ServiceOverloaded as exc:
                failures.append(exc)

        t = threading.Thread(target=doomed)
        t.start()
        while gate.stats().queued < 1:
            pass
        admitted = []

        def newcomer():
            gate.acquire(DeadlineBudget(100.0, clock=clock))
            admitted.append(True)

        t2 = threading.Thread(target=newcomer)
        t2.start()
        t.join(timeout=10)
        assert failures
        assert failures[0].fields["shed_reason"] == "deadline_earliest"
        gate.release()
        t2.join(timeout=10)
        assert admitted == [True]

    def test_deadline_policy_ties_break_against_the_newcomer(self):
        clock = FakeClock()
        gate = AdmissionGate(
            capacity=1, queue_limit=1, policy="deadline", clock=clock
        )
        gate.acquire()
        t = threading.Thread(target=gate.acquire)  # unbounded waiter
        t.start()
        while gate.stats().queued < 1:
            pass
        # The arrival has a finite deadline; the waiter is unbounded and
        # never loses the comparison — the newcomer is shed.
        with pytest.raises(ServiceOverloaded) as exc:
            gate.acquire(DeadlineBudget(5.0, clock=clock))
        assert exc.value.fields["shed_reason"] == "deadline_earliest"
        gate.release()
        t.join(timeout=10)

    def test_deadline_hopeless_fast_reject_uses_the_ewma(self):
        clock = FakeClock()
        gate = AdmissionGate(
            capacity=1, queue_limit=8, policy="deadline", clock=clock
        )
        gate.acquire()
        gate.release(build_seconds=1.0)  # EWMA = 1.0s per cold build
        gate.acquire()
        # Expected wait for a new arrival is (depth + 1) * 1.0 = 1.0s;
        # a 0.1s budget cannot cover it.
        with pytest.raises(ServiceOverloaded) as exc:
            gate.acquire(DeadlineBudget(0.1, clock=clock))
        assert exc.value.fields["shed_reason"] == "deadline_hopeless"
        # A generous budget still queues fine.
        t = threading.Thread(
            target=gate.acquire, args=(DeadlineBudget(100.0, clock=clock),)
        )
        t.start()
        while gate.stats().queued < 1:
            pass
        gate.release()
        t.join(timeout=10)

    def test_expired_budget_raises_deadline_not_shed_when_queued(self):
        clock = FakeClock()
        gate = AdmissionGate(capacity=1, queue_limit=4, clock=clock)
        gate.acquire()
        budget = DeadlineBudget(0.5, clock=clock)
        clock.advance(1.0)  # budget already spent before queueing
        with pytest.raises(DeadlineExceeded) as exc:
            gate.acquire(budget)
        assert exc.value.fields["stage"] == "admission"
        assert gate.stats().queued == 0  # the dead waiter left the queue

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(capacity=0)
        with pytest.raises(ValueError):
            AdmissionGate(capacity=1, queue_limit=-1)
        with pytest.raises(ValueError):
            AdmissionGate(capacity=1, policy="nope")
        with pytest.raises(ValueError):
            AdmissionGate(capacity=1, ewma_alpha=0.0)
