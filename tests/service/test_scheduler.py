"""Scheduler service: tiers, byte identity, single-flight, errors."""

import hashlib
import math
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro import obs
from repro.machine import MachineConfig
from repro.obs.metrics import Histogram
from repro.schedules import (
    IRREGULAR_ALGORITHMS,
    CommPattern,
    lint_schedule,
    schedule_from_json,
)
from repro.service import ScheduleStore, Scheduler, derive_key, drift_variant
from repro.service import scheduler as scheduler_module


def pattern(n=8, seed=3):
    return CommPattern.synthetic(n, 0.4, 512, seed=seed)


#: sha256 prefix of ``drift_variant(p, seed).matrix`` (dtype string then
#: bytes) for ``p = CommPattern.synthetic(32, density, nbytes,
#: pattern_seed)``.  perfbench's ``serve_n32`` builds its warm traffic
#: with ``drift_variant(p, 1000 + i)``, so these must never move.
DRIFT_PINS = {
    (0.10, 16, 1, 1000): "49d4b0c67fad97fa",
    (0.25, 64, 2, 1005): "5a69a449c8058f22",
    (0.50, 256, 3, 1042): "f3167ccaef85b326",
    (0.75, 1024, 4, 1063): "332b2187ed847402",
    (0.40, 512, 3, 7): "e680978ed7ff0ed4",
}


class TestDriftVariant:
    def test_drift_variant_is_edit_distance_one(self):
        p = CommPattern.synthetic(8, 0.4, 512, seed=3)
        v = drift_variant(p, seed=9)
        diff = np.count_nonzero(p.matrix != v.matrix)
        assert diff == 1
        # The changed message doubled, never vanished.
        i, j = map(int, np.argwhere(p.matrix != v.matrix)[0])
        assert v.matrix[i, j] == 2 * p.matrix[i, j]

    @pytest.mark.parametrize(
        "case", sorted(DRIFT_PINS), ids=lambda c: "d{}-b{}-p{}-s{}".format(*c)
    )
    def test_drift_variant_output_is_pinned(self, case):
        density, nbytes, pattern_seed, seed = case
        p = CommPattern.synthetic(32, density, nbytes, seed=pattern_seed)
        m = drift_variant(p, seed).matrix
        digest = hashlib.sha256(m.dtype.str.encode() + m.tobytes())
        assert digest.hexdigest()[:16] == DRIFT_PINS[case]

    @pytest.mark.parametrize("density", [0.1, 0.4, 0.75])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_doubles_exactly_one_message(self, n, density):
        p = CommPattern.synthetic(n, density, 256, seed=n)
        for seed in (0, 9, 1000 + n):
            v = drift_variant(p, seed)
            assert v.nprocs == n
            assert v.matrix.dtype == p.matrix.dtype
            changed = np.argwhere(p.matrix != v.matrix)
            assert len(changed) == 1
            i, j = map(int, changed[0])
            assert p.matrix[i, j] > 0
            assert v.matrix[i, j] == 2 * p.matrix[i, j]

    @pytest.mark.parametrize("seed", [0, 7, 1000, 1063])
    def test_same_seed_same_variant_and_input_untouched(self, seed):
        p = CommPattern.synthetic(32, 0.5, 256, seed=2)
        before = p.matrix.copy()
        a, b = drift_variant(p, seed), drift_variant(p, seed)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(p.matrix, before)

    def test_seeds_spread_over_the_messages(self):
        # serve_n32 gives each corpus pattern its own seed; the drifted
        # cell must move with the seed, not sit on one message.
        p = CommPattern.synthetic(32, 0.5, 256, seed=2)
        cells = {
            tuple(np.argwhere(p.matrix != drift_variant(p, seed).matrix)[0])
            for seed in range(1000, 1064)
        }
        assert len(cells) > 32

    def test_single_message_pattern_drifts_that_message(self):
        m = np.zeros((8, 8), dtype=np.int64)
        m[2, 5] = 100
        for seed in range(4):
            v = drift_variant(CommPattern(m), seed).matrix
            assert v[2, 5] == 200
            assert np.count_nonzero(v) == 1


class TestTiers:
    def test_cold_then_hit_byte_identical(self):
        with Scheduler() as sched:
            cold = sched.request(pattern(), "greedy")
            hit = sched.request(pattern(), "greedy")
        assert cold.source == "cold"
        assert hit.source == "hit"
        assert hit.serialized == cold.serialized
        assert hit.key.digest == cold.key.digest

    def test_hit_survives_store_reload(self, tmp_path):
        with Scheduler(ScheduleStore(tmp_path)) as sched:
            cold = sched.request(pattern(), "greedy")
        with Scheduler(ScheduleStore(tmp_path)) as fresh:
            hit = fresh.request(pattern(), "greedy")
        assert hit.source == "hit"
        assert hit.serialized == cold.serialized

    def test_warm_start_serves_linted_adaptation(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")
            drifted = drift_variant(p, seed=7)
            warm = sched.request(drifted, "greedy")
            assert warm.source == "warm"
            assert warm.edit_distance == 1
            assert lint_schedule(warm.schedule, drifted).ok
            # Repeat near-miss traffic is memoized, not re-adapted.
            again = sched.request(drifted, "greedy")
            assert again.source == "warm"
            assert again.serialized == warm.serialized

    def test_isomorphic_relabel_hit(self):
        with Scheduler() as sched:
            p = pattern()
            cold = sched.request(p, "greedy")
            assert cold.key.canonical
            perm = np.random.default_rng(5).permutation(8)
            q = CommPattern(p.matrix[np.ix_(perm, perm)])
            iso = sched.request(q, "greedy")
            assert iso.source == "isomorphic"
            assert iso.key.digest == cold.key.digest
            assert lint_schedule(iso.schedule, q).ok

    def test_served_serialized_deserializes_to_served_schedule(self):
        with Scheduler() as sched:
            resp = sched.request(pattern(), "greedy")
        assert schedule_from_json(resp.serialized) == resp.schedule

    def test_lint_responses_mode(self):
        with Scheduler(lint_responses=True) as sched:
            p = pattern()
            assert sched.request(p, "greedy").source == "cold"
            assert sched.request(p, "greedy").source == "hit"

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("algorithm", sorted(IRREGULAR_ALGORITHMS))
    def test_every_tier_serves_linted_schedules(self, algorithm, n):
        p = pattern(n=n)
        drifted = drift_variant(p, 1000)
        perm = np.random.default_rng(5).permutation(n)
        relabeled = CommPattern(p.matrix[np.ix_(perm, perm)])
        stream = [p, p, drifted, drifted, relabeled]
        with Scheduler() as sched:
            responses = [sched.request(q, algorithm) for q in stream]
            stats = sched.stats()
        assert [r.source for r in responses] == [
            "cold", "hit", "warm", "warm", "isomorphic"
        ]
        for request, response in zip(stream, responses):
            assert lint_schedule(response.schedule, request).ok
        cold, hit, warm, memo, iso = responses
        assert hit.serialized == cold.serialized
        assert warm.edit_distance == 1
        assert memo.serialized == warm.serialized
        assert iso.key.digest == cold.key.digest
        assert stats == {
            "service.requests": 5,
            "service.cold_builds": 1,
            "service.hits": 1,
            "service.warm_hits": 2,
            "service.iso_hits": 1,
        }


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self):
        n_threads = 8
        with Scheduler() as sched:
            barrier = threading.Barrier(n_threads)
            responses = [None] * n_threads
            errors = []

            def worker(i):
                try:
                    barrier.wait()
                    responses[i] = sched.request(pattern(), "greedy")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            with obs.tracing() as tracer:
                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

            assert not errors
            builds = [s for s in tracer.spans if s.name == "build/GS"]
            assert len(builds) == 1
            service_builds = [
                s for s in tracer.spans if s.name == "service/build/greedy"
            ]
            assert len(service_builds) == 1
            assert sched.stats()["service.cold_builds"] == 1
            serials = {r.serialized for r in responses}
            assert len(serials) == 1
            # Every non-owner either coalesced onto the in-flight build
            # or landed on the store entry it published.
            for r in responses:
                assert r.source in ("cold", "hit")
                assert not (r.source == "hit" and r.deduped)

    def test_waiter_with_isomorphic_pattern_gets_relabeled_schedule(self):
        """A dedup waiter must never take the owner's bytes for a
        *different* (relabel-isomorphic) pattern sharing the digest."""

        class SignalFuture(Future):
            """Future that reports when a waiter blocks on result()."""

            def __init__(self, waiting):
                super().__init__()
                self._waiting = waiting

            def result(self, timeout=None):
                self._waiting.set()
                return super().result(timeout)

        with Scheduler() as sched:
            p = pattern()
            perm = np.random.default_rng(5).permutation(8)
            q = CommPattern(p.matrix[np.ix_(perm, perm)])
            config = MachineConfig(8)
            key = derive_key(p, "greedy", config)
            assert key.canonical
            assert derive_key(q, "greedy", config).digest == key.digest

            waiting = threading.Event()
            future = SignalFuture(waiting)
            sched._inflight[key.digest] = future
            results = []
            t = threading.Thread(
                target=lambda: results.append(sched.request(q, "greedy"))
            )
            t.start()
            assert waiting.wait(timeout=30)
            # The owner's entry for p lands in the store, then the
            # future resolves — the order _single_flight guarantees.
            serialized = sched._cold_build(key, p, config, None)
            del sched._inflight[key.digest]
            future.set_result(serialized)
            t.join(timeout=30)
            assert not t.is_alive()

            (resp,) = results
            assert resp.source == "isomorphic"
            assert resp.serialized != serialized
            assert lint_schedule(resp.schedule, q).ok


class TestLifecycle:
    def test_pool_created_lazily_and_released_on_close(self):
        sched = Scheduler(workers=1)
        assert sched._pool is None  # cache-only use spawns no pool
        sched.request(pattern(), "greedy")
        assert sched._pool is not None
        sched.close()
        assert sched._pool is None

    def test_memos_respect_memo_limit(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_MEMO_LIMIT", 2)
        with Scheduler() as sched:
            for seed in range(5):
                sched.request(pattern(seed=seed), "greedy")
            assert len(sched._schedules) <= 2
            assert len(sched._keys) <= 2
            assert len(sched._warm) <= 2
            # Eviction costs latency, never correctness: the store
            # still serves the evicted pattern byte-identically.
            assert sched.request(pattern(seed=0), "greedy").source == "hit"


class TestStats:
    def test_counters_track_tiers(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")
            sched.request(p, "greedy")
            sched.request(drift_variant(p, seed=7), "greedy")
            stats = sched.stats()
        assert stats["service.requests"] == 3
        assert stats["service.cold_builds"] == 1
        assert stats["service.hits"] == 1
        assert stats["service.warm_hits"] == 1

    def test_registry_after_each_request_of_a_fixed_stream(self):
        # Counters and histogram counts after each request, as the
        # scheduler reported them when every update looked its metric up
        # by name: a metric is listed once it fires, never before.
        p = CommPattern.synthetic(16, 0.5, 128, seed=3)
        perm = np.random.default_rng(2).permutation(16)
        stream = [
            p,
            p,
            drift_variant(p, 5),
            CommPattern(p.matrix[np.ix_(perm, perm)]),
            p,
            drift_variant(p, 5),
        ]
        tiers = {
            "service.requests": [1, 2, 3, 4, 5, 6],
            "service.cold_builds": [1, 1, 1, 1, 1, 1],
            "service.hits": [0, 1, 1, 1, 2, 2],
            "service.warm_hits": [0, 0, 1, 1, 1, 2],
            "service.iso_hits": [0, 0, 0, 1, 1, 1],
        }
        histograms = {
            "service.build_seconds": [1, 1, 1, 1, 1, 1],
            "service.latency": [1, 2, 3, 4, 5, 6],
            "service.latency.cold": [1, 1, 1, 1, 1, 1],
            "service.latency.hit": [0, 1, 1, 1, 2, 2],
            "service.latency.warm": [0, 0, 1, 1, 1, 2],
            "service.latency.isomorphic": [0, 0, 0, 1, 1, 1],
            "service.lint_seconds": [0, 0, 1, 2, 2, 2],
        }
        sources = []
        with obs.tracing() as tracer, Scheduler() as sched:
            assert sched.stats() == {}
            assert sched.metrics_snapshot()["histograms"] == {}
            for i, request in enumerate(stream):
                response = sched.request(request, "greedy", MachineConfig(16))
                sources.append(response.source)
                want = {k: v[i] for k, v in tiers.items() if v[i]}
                assert sched.stats() == want
                doc = sched.metrics_snapshot()
                assert doc["counters"] == want and doc["gauges"] == {}
                got = {k: h["count"] for k, h in doc["histograms"].items()}
                assert got == {k: v[i] for k, v in histograms.items() if v[i]}
                # The response carries its own finished trace.
                assert response.trace.source == response.source
                assert response.trace.latency == response.latency
            mirrored = {
                name: c.value
                for name, c in tracer.metrics.counters.items()
                if name in tiers
            }
        assert sources == ["cold", "hit", "warm", "isomorphic", "hit", "warm"]
        assert mirrored == sched.stats()

    @pytest.mark.parametrize(
        "name",
        [
            "service.latency",
            "service.latency.hit",
            "service.latency.warm",
            "service.latency.isomorphic",
            "service.latency.cold",
        ],
    )
    def test_latency_histogram_is_exact_and_reloads(self, name):
        p = pattern(n=16)
        perm = np.random.default_rng(2).permutation(16)
        stream = [
            p,
            p,
            drift_variant(p, 5),
            CommPattern(p.matrix[np.ix_(perm, perm)]),
            p,
            drift_variant(p, 5),
        ]
        with Scheduler() as sched:
            responses = [sched.request(q, "greedy") for q in stream]
            doc = sched.metrics_snapshot()["histograms"][name]
        tier = name.rpartition(".")[2]
        latencies = [
            r.latency for r in responses if tier == "latency" or r.source == tier
        ]
        assert doc["count"] == len(latencies)
        assert doc["min"] == min(latencies) and doc["max"] == max(latencies)
        assert doc["sum"] == math.fsum(latencies)
        assert doc["p50"] <= doc["p90"] <= doc["p99"]
        reloaded = Histogram.from_state(doc["state"])
        assert reloaded.state() == doc["state"]
        assert reloaded.count == doc["count"]


class TestErrors:
    def test_unknown_algorithm(self):
        with Scheduler() as sched:
            with pytest.raises(ValueError, match="unknown algorithm"):
                sched.request(pattern(), "no-such-builder")

    def test_machine_pattern_size_mismatch(self):
        with Scheduler() as sched:
            with pytest.raises(ValueError, match="nodes"):
                sched.request(pattern(8), "greedy", MachineConfig(16))


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestGuardIntegration:
    def test_guarded_no_fault_serves_identical_bytes(self):
        """Arming the guard with generous limits must be invisible: over
        a fixed stream through every tier it serves the same bytes and
        counts the same tier traffic."""
        from repro.service import GuardConfig

        perm = np.random.default_rng(5).permutation(8)
        stream = []
        for seed in range(3):
            p = pattern(seed=seed)
            drifted = drift_variant(p, 1000 + seed)
            relabeled = CommPattern(p.matrix[np.ix_(perm, perm)])
            stream += [p, p, drifted, relabeled, drifted]

        def serve(guard):
            with Scheduler(guard=guard) as sched:
                responses = [sched.request(q, "greedy") for q in stream]
                return responses, sched.stats()

        plain, plain_stats = serve(None)
        guarded, guarded_stats = serve(
            GuardConfig(deadline=60.0, admission_capacity=4)
        )
        assert [r.source for r in plain] == [
            "cold", "hit", "warm", "isomorphic", "warm"
        ] * 3
        assert [r.serialized for r in guarded] == [r.serialized for r in plain]
        assert guarded_stats == plain_stats
        assert plain_stats["service.cold_builds"] == 3

    @pytest.mark.parametrize(
        "knobs",
        [
            {"deadline": 60.0},
            {"admission_capacity": 1, "admission_queue": 0},
            {"admission_capacity": 1, "shed_policy": "reject-oldest"},
            {"admission_capacity": 1, "shed_policy": "deadline"},
            {"max_retries": 5, "backoff_base": 1.0, "backoff_cap": 2.0},
            {"breaker_threshold": 1, "breaker_cooldown": 60.0},
            {"deadline": 60.0, "admission_capacity": 2, "max_retries": 5},
        ],
        ids=[
            "deadline",
            "admission-no-queue",
            "shed-oldest",
            "shed-deadline",
            "retries",
            "breaker",
            "all",
        ],
    )
    def test_each_idle_guard_part_is_invisible(self, knobs):
        """Each guard knob on its own, never triggered, serves the same
        bytes and tier counters as no guard, and counts no guard event;
        admission control only times each cold build's (empty) wait."""
        from repro.service import GuardConfig

        p = pattern(seed=4)
        perm = np.random.default_rng(3).permutation(8)
        stream = [
            p,
            p,
            drift_variant(p, 1004),
            CommPattern(p.matrix[np.ix_(perm, perm)]),
            pattern(seed=5),
        ]

        def serve(guard):
            with Scheduler(guard=guard) as sched:
                responses = [sched.request(q, "greedy") for q in stream]
                return responses, sched.metrics_snapshot()

        plain, plain_doc = serve(None)
        guarded, guarded_doc = serve(GuardConfig(**knobs))
        assert [r.source for r in guarded] == [
            "cold", "hit", "warm", "isomorphic", "cold"
        ]
        assert [r.serialized for r in guarded] == [r.serialized for r in plain]
        assert guarded_doc["counters"] == plain_doc["counters"]
        extra = set(guarded_doc["histograms"]) - set(plain_doc["histograms"])
        if "admission_capacity" in knobs:
            assert extra == {"service.guard.admission_wait_seconds"}
            histograms = guarded_doc["histograms"]
            # One wait per cold build.
            assert histograms["service.guard.admission_wait_seconds"]["count"] == 2
        else:
            assert extra == set()

    def test_deadline_exceeded_is_structured_and_counted(self):
        from repro.service import DeadlineExceeded, GuardConfig

        clock = _FakeClock()
        guard = GuardConfig(
            clock=clock,
            sleep=clock.advance,
            chaos_hook=lambda stage, attempt: ("slow_build", 10.0),
        )
        with Scheduler(guard=guard) as sched:
            with pytest.raises(DeadlineExceeded) as exc:
                sched.request(pattern(seed=11), "greedy", deadline=1.0)
            err = exc.value
            assert err.fields["stage"] == "build"
            assert err.fields["deadline"] == 1.0
            assert err.trace is not None
            assert err.trace.source == "error"
            assert err.trace.deadline == 1.0
            stats = sched.stats()
            assert stats["service.guard.deadline_exceeded"] == 1
            assert stats["service.requests"] == 1

    def test_transient_fault_is_retried_then_served(self):
        from repro.service import GuardConfig

        guard = GuardConfig(
            max_retries=2,
            backoff_base=0.001,
            backoff_cap=0.002,
            chaos_hook=lambda stage, attempt: (
                ("fail_transient", 0.0) if attempt == 0 else None
            ),
        )
        with Scheduler(guard=guard) as sched:
            resp = sched.request(pattern(seed=12), "greedy")
            assert resp.source == "cold"
            assert resp.trace.retries == 1
            assert resp.trace.backoff_seconds > 0
            stats = sched.stats()
            assert stats["service.guard.retries"] == 1
            assert stats["service.guard.chaos_injections"] == 1
            assert lint_schedule(resp.schedule, pattern(seed=12)).ok

    def test_exhausted_retries_fail_over_inline(self):
        from repro.service import GuardConfig

        guard = GuardConfig(
            max_retries=1,
            backoff_base=0.001,
            backoff_cap=0.002,
            chaos_hook=lambda stage, attempt: ("fail_transient", 0.0),
        )
        with Scheduler(guard=guard) as sched:
            resp = sched.request(pattern(seed=13), "greedy")
            assert resp.source == "cold"
            assert resp.trace.retries == 1  # initial + 1 retry, then inline
            assert resp.trace.inline_failover
            assert lint_schedule(resp.schedule, pattern(seed=13)).ok
            stats = sched.stats()
            assert stats["service.guard.retries"] == 1
            assert stats["service.guard.inline_failovers"] == 1
            assert stats["service.guard.chaos_injections"] == 2

    def test_breaker_trip_degrade_and_probe_recovery(self):
        from repro.service import GuardConfig

        clock = _FakeClock()
        kills = {"n": 0}

        def hook(stage, attempt):
            if stage == "build" and kills["n"] < 2:
                kills["n"] += 1
                return ("kill_worker", 0.0)
            return None

        guard = GuardConfig(
            max_retries=1,
            backoff_base=0.001,
            backoff_cap=0.002,
            breaker_threshold=2,
            breaker_cooldown=5.0,
            clock=clock,
            chaos_hook=hook,
        )
        with Scheduler(workers=1, guard=guard) as sched:
            # Two kills exhaust the retries, trip the breaker, and the
            # request survives by inline failover.
            a = sched.request(pattern(seed=14), "greedy")
            assert a.trace.worker_crashes == 2
            assert a.trace.inline_failover
            assert sched._breaker.state == "open"
            # Open breaker: cold builds degrade inline, no more crashes.
            b = sched.request(pattern(seed=15), "greedy")
            assert b.trace.breaker_state == "open"
            assert b.trace.worker_crashes == 0
            # Cooldown passes; the next cold build is the probe, the
            # hook has gone quiet, and the breaker closes again.
            clock.advance(5.0)
            c = sched.request(pattern(seed=16), "greedy")
            assert c.trace.worker_build_seconds > 0
            assert sched._breaker.state == "closed"
            stats = sched.stats()
            assert stats["service.guard.worker_crashes"] == 2
            assert stats["service.guard.breaker_trips"] == 1
            assert stats["service.guard.breaker_probes"] == 1
            assert stats["service.guard.inline_failovers"] == 1

    def test_shed_requests_reconcile_with_the_counter(self):
        import time as _time

        from repro.service import GuardConfig, ServiceOverloaded

        guard = GuardConfig(
            admission_capacity=1,
            admission_queue=0,
            chaos_hook=lambda stage, attempt: ("slow_build", 0.2),
            sleep=_time.sleep,
        )
        n_threads = 4
        with Scheduler(guard=guard) as sched:
            barrier = threading.Barrier(n_threads)
            oks, errs = [], []

            def worker(i):
                barrier.wait()
                try:
                    oks.append(sched.request(pattern(seed=20 + i), "greedy"))
                except ServiceOverloaded as exc:
                    errs.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(oks) + len(errs) == n_threads
            assert errs, "expected at least one shed request"
            for exc in errs:
                assert exc.fields["shed_reason"] == "reject_newest"
                assert exc.trace is not None
                assert exc.trace.shed_reason == "reject_newest"
            assert sched.stats()["service.guard.shed"] == len(errs)


class TestGuardLifecycle:
    def test_finalizer_backstop_shuts_the_respawned_pool(self):
        """Satellite: the weakref.finalize backstop must still cover the
        pool after a breaker trip respawned its executor."""
        import gc

        from repro.service import GuardConfig

        guard = GuardConfig(
            max_retries=0,
            breaker_threshold=1,
            chaos_hook=lambda stage, attempt: (
                ("kill_worker", 0.0) if attempt == 0 else None
            ),
        )
        sched = Scheduler(workers=1, guard=guard)
        resp = sched.request(pattern(seed=17), "greedy")
        assert resp.trace.inline_failover
        assert sched._breaker.state == "open"
        pool = sched._pool
        assert pool is not None and pool._executor is not None
        del sched, resp
        # The broken executor's manager thread may briefly pin the
        # scheduler through its shutdown frames; give gc a few passes.
        import time

        for _ in range(20):
            gc.collect()
            if pool._executor is None:
                break
            time.sleep(0.05)
        # The finalizer held the pool (not the scheduler) and shut down
        # the *respawned* executor — no leaked worker processes.
        assert pool._executor is None

    def test_memo_limit_eviction_while_breaker_open(self, monkeypatch):
        """Satellite: memo eviction under an open breaker must stay
        correct — evicted patterns re-serve from the store."""
        from repro.service import GuardConfig

        clock = _FakeClock()
        guard = GuardConfig(
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown=1e9,
            clock=clock,
            chaos_hook=lambda stage, attempt: (
                ("kill_worker", 0.0) if attempt == 0 else None
            ),
        )
        monkeypatch.setattr(scheduler_module, "_MEMO_LIMIT", 2)
        with Scheduler(workers=1, guard=guard) as sched:
            first = sched.request(pattern(seed=0), "greedy")
            assert sched._breaker.state == "open"
            for seed in range(1, 5):
                sched.request(pattern(seed=seed), "greedy")
            assert len(sched._schedules) <= 2
            assert len(sched._keys) <= 2
            again = sched.request(pattern(seed=0), "greedy")
            assert again.source == "hit"
            assert again.serialized == first.serialized
