"""Worker pool: inline/process modes, respawn, crash recovery.

The load-bearing regression here is the waiter hang: before the guard
work, a worker process dying mid-build poisoned the executor
(``BrokenProcessPool``) and the single-flight owner's exception path
could leave dedup waiters blocked forever.  These tests kill a child
deterministically and assert every caller still gets an answer.
"""

import os
import threading

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.schedules import CommPattern
from repro.service import GuardConfig, Scheduler, WorkerPool


def pattern(n=8, seed=3):
    return CommPattern.synthetic(n, 0.4, 512, seed=seed)


def _square(x):
    return x * x


def _die():
    os._exit(13)  # simulates a segfaulting/OOM-killed worker


class TestRespawn:
    def test_inline_pool_respawn_is_a_noop(self):
        pool = WorkerPool(jobs=0)
        with pool:
            pool.respawn()
            assert pool.submit(_square, 3).result() == 9

    def test_respawn_replaces_a_broken_executor(self):
        with WorkerPool(jobs=1) as pool:
            assert pool.submit(_square, 2).result() == 4
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die).result()
            # The poisoned executor fails every subsequent submit ...
            with pytest.raises(BrokenProcessPool):
                pool.submit(_square, 3).result()
            # ... until respawn swaps in a fresh one.
            pool.respawn()
            assert pool.submit(_square, 3).result() == 9


    def test_respawn_never_exposes_an_empty_executor(self, monkeypatch):
        """A submit racing a respawn must reach a process pool, never
        fall through to inline execution in the parent."""
        import concurrent.futures

        pool = WorkerPool(jobs=1)
        seen = []

        class FakeExecutor:
            def __init__(self, max_workers):
                seen.append(pool._executor)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", FakeExecutor
        )
        pool.__enter__()
        pool.respawn()
        assert seen[0] is None  # first executor
        assert seen[1] is not None  # the old one stays until replaced
        assert isinstance(pool._executor, FakeExecutor)
        assert pool._executor is not seen[1]


class TestSchedulerCrashRecovery:
    def test_unguarded_scheduler_fails_over_inline_and_respawns(self):
        """Crash safety is unconditional — no GuardConfig required."""
        with Scheduler(workers=1) as sched:
            # Prime the executor, then kill its only worker.
            sched.request(pattern(seed=1), "greedy")
            sched._pool.submit(_die).exception()
            resp = sched.request(pattern(seed=2), "greedy")
            assert resp.source == "cold"
            assert resp.trace.inline_failover
            assert resp.trace.worker_crashes == 1
            stats = sched.stats()
            assert stats["service.guard.worker_crashes"] == 1
            assert stats["service.guard.inline_failovers"] == 1
            # The pool was respawned: the next cold build uses a worker.
            after = sched.request(pattern(seed=4), "greedy")
            assert after.trace.worker_build_seconds > 0

    def test_guarded_kill_mid_build_retries_on_respawned_pool(self):
        guard = GuardConfig(
            max_retries=2,
            backoff_base=0.001,
            backoff_cap=0.002,
            chaos_hook=lambda stage, attempt: (
                ("kill_worker", 0.0) if attempt == 0 else None
            ),
        )
        with Scheduler(workers=1, guard=guard) as sched:
            resp = sched.request(pattern(seed=5), "greedy")
            assert resp.source == "cold"
            assert resp.trace.worker_crashes == 1
            assert resp.trace.retries == 1
            assert not resp.trace.inline_failover  # retry succeeded
            assert resp.trace.worker_build_seconds > 0

    def test_kill_mid_build_leaves_no_waiter_hanging(self):
        """Deterministic regression: child killed mid-build while other
        threads wait on the single-flight future — everyone must get
        the same bytes, nobody may hang."""
        n_threads = 6
        guard = GuardConfig(
            max_retries=1,
            backoff_base=0.001,
            backoff_cap=0.002,
            chaos_hook=lambda stage, attempt: (
                ("kill_worker", 0.0) if attempt == 0 else None
            ),
        )
        with Scheduler(workers=1, guard=guard) as sched:
            barrier = threading.Barrier(n_threads)
            responses = [None] * n_threads
            errors = []

            def worker(i):
                try:
                    barrier.wait()
                    responses[i] = sched.request(pattern(seed=6), "greedy")
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            hung = [t for t in threads if t.is_alive()]
            assert not hung, f"{len(hung)} waiter thread(s) hung"
            assert not errors, errors
            assert all(r is not None for r in responses)
            assert len({r.serialized for r in responses}) == 1


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestUnguardedBreaker:
    def test_repeated_kills_trip_the_default_breaker_then_a_probe_closes_it(
        self,
    ):
        """``guard=None`` is ``GuardConfig(max_retries=0)``: three kills
        in a row trip the default breaker, requests keep being served
        inline, and after the cooldown one probe closes it again."""
        with Scheduler(workers=1) as sched:
            threshold = sched.guard.breaker_threshold
            assert sched.guard.max_retries == 0
            clock = _FakeClock()
            sched._breaker._clock = clock
            first = sched.request(pattern(seed=30), "greedy")
            assert first.trace.breaker_state == "closed"
            hit = sched.request(pattern(seed=30), "greedy")
            assert hit.source == "hit"
            assert hit.trace.breaker_state == ""  # hits skip the breaker
            for i in range(threshold):
                sched._pool.submit(_die).exception()
                resp = sched.request(pattern(seed=31 + i), "greedy")
                assert resp.source == "cold"
                assert resp.trace.worker_crashes == 1
                assert resp.trace.retries == 0
                assert resp.trace.inline_failover
            assert resp.trace.breaker_state == "open"
            # Open breaker: cold builds run inline, no worker involved.
            inline = sched.request(pattern(seed=40), "greedy")
            assert inline.source == "cold"
            assert inline.trace.breaker_state == "open"
            assert inline.trace.worker_build_seconds == 0
            assert not inline.trace.inline_failover
            clock.t += sched.guard.breaker_cooldown
            probe = sched.request(pattern(seed=41), "greedy")
            assert probe.trace.worker_build_seconds > 0
            assert probe.trace.breaker_state == "closed"
            stats = sched.stats()
            assert stats["service.guard.worker_crashes"] == threshold
            assert stats["service.guard.inline_failovers"] == threshold
            assert stats["service.guard.breaker_trips"] == 1
            assert stats["service.guard.breaker_probes"] == 1
