"""Per-request traces, tier histograms, worker telemetry, snapshots."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import obs
from repro.obs.telemetry import validate_metrics_json
from repro.schedules import CommPattern
from repro.service import RequestTrace, Scheduler, derive_key, drift_variant
from repro.service.scheduler import SOURCES, _TIER_LATENCY


def pattern(n=8, seed=3):
    return CommPattern.synthetic(n, 0.4, 512, seed=seed)


class TestTraceTiers:
    def test_cold_trace(self):
        with Scheduler() as sched:
            resp = sched.request(pattern(), "greedy")
        trace = resp.trace
        assert trace is not None
        assert trace.source == "cold"
        assert trace.build_seconds > 0
        assert trace.latency >= trace.build_seconds
        assert not trace.deduped
        assert trace.worker_build_seconds == 0.0  # inline build

    def test_hit_trace_has_no_build_time(self):
        with Scheduler() as sched:
            sched.request(pattern(), "greedy")
            hit = sched.request(pattern(), "greedy")
        assert hit.trace.source == "hit"
        assert hit.trace.build_seconds == 0.0
        assert hit.trace.latency > 0

    def test_warm_trace_records_lint_and_distance(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")
            warm = sched.request(drift_variant(p, seed=7), "greedy")
        assert warm.trace.source == "warm"
        assert warm.trace.edit_distance == 1
        assert warm.trace.lint_seconds > 0

    def test_isomorphic_trace(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")
            perm = np.random.default_rng(5).permutation(8)
            iso = sched.request(
                CommPattern(p.matrix[np.ix_(perm, perm)]), "greedy"
            )
        assert iso.trace.source == "isomorphic"
        assert iso.trace.lint_seconds > 0

    def test_to_json_is_flat_and_complete(self):
        with Scheduler() as sched:
            doc = sched.request(pattern(), "greedy").trace.to_json()
        assert list(doc) == [
            "source",
            "latency",
            "singleflight_wait",
            "build_seconds",
            "worker_build_seconds",
            "lint_seconds",
            "deduped",
            "edit_distance",
            "deadline",
            "admission_wait",
            "retries",
            "backoff_seconds",
            "worker_crashes",
            "inline_failover",
            "shed_reason",
            "breaker_state",
        ]
        assert doc["source"] == "cold"

    def test_traces_do_not_leak_across_requests(self):
        with Scheduler() as sched:
            cold = sched.request(pattern(), "greedy")
            hit = sched.request(pattern(), "greedy")
        assert cold.trace is not hit.trace
        assert hit.trace.build_seconds == 0.0


class TestTierHistograms:
    def test_every_tier_feeds_its_labeled_histogram(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")  # cold
            sched.request(p, "greedy")  # hit
            sched.request(drift_variant(p, seed=7), "greedy")  # warm
            perm = np.random.default_rng(5).permutation(8)
            sched.request(
                CommPattern(p.matrix[np.ix_(perm, perm)]), "greedy"
            )  # isomorphic
            hists = sched.metrics.histograms
        assert hists["service.latency"].count == 4
        for tier in SOURCES:
            assert hists[_TIER_LATENCY[tier]].count == 1
        assert hists["service.build_seconds"].count == 1
        # latency is end-to-end: at least the build it contains.
        assert (
            hists["service.latency.cold"].total
            >= hists["service.build_seconds"].total
        )

    def test_conditional_stage_histograms_absent_when_unused(self):
        with Scheduler() as sched:
            sched.request(pattern(), "greedy")
            hists = sched.metrics.histograms
        # No dedup happened and lint_responses is off: neither stage
        # should materialize a histogram of zeros.
        assert "service.singleflight_wait_seconds" not in hists


class TestSingleFlightWait:
    def test_waiter_records_wait_time(self):
        from repro.machine import MachineConfig

        with Scheduler() as sched:
            p = pattern()
            key = derive_key(
                p,
                "greedy",
                MachineConfig(p.nprocs),
                None,
                canonicalize=sched.canonicalize,
            )
            future = Future()
            sched._inflight[key.digest] = future
            results = []
            t = threading.Thread(
                target=lambda: results.append(sched.request(p, "greedy"))
            )
            t.start()
            time.sleep(0.05)
            # Publish the entry the way the owner would, then resolve.
            serialized = sched._cold_build(
                key, p, MachineConfig(p.nprocs), None
            )
            del sched._inflight[key.digest]
            future.set_result(serialized)
            t.join(timeout=30)
            assert not t.is_alive()
            (resp,) = results
        assert resp.trace.deduped
        assert resp.trace.singleflight_wait >= 0.05
        assert (
            sched.metrics.histograms[
                "service.singleflight_wait_seconds"
            ].count
            == 1
        )


class TestWorkerTelemetry:
    def test_worker_build_ships_delta_back(self):
        with Scheduler(workers=1) as sched:
            resp = sched.request(pattern(), "greedy")
        trace = resp.trace
        assert trace.source == "cold"
        assert trace.worker_build_seconds > 0
        assert trace.build_seconds >= trace.worker_build_seconds
        hist = sched.metrics.histograms["service.worker_build_seconds"]
        assert hist.count == 1
        assert hist.total == pytest.approx(trace.worker_build_seconds)

    def test_worker_delta_reaches_active_tracer(self):
        with obs.tracing() as tracer:
            with Scheduler(workers=1) as sched:
                sched.request(pattern(), "greedy")
        assert (
            tracer.metrics.histograms["service.worker_build_seconds"].count
            == 1
        )
        worker_spans = [
            s for s in tracer.spans if s.category == "worker"
        ]
        assert len(worker_spans) == 1
        assert worker_spans[0].name == "worker/build/greedy"
        assert worker_spans[0].duration > 0


class TestMetricsSnapshot:
    def test_snapshot_is_valid_metrics_document(self):
        with Scheduler() as sched:
            p = pattern()
            sched.request(p, "greedy")
            sched.request(p, "greedy")
            doc = sched.metrics_snapshot(meta={"suite": "test"})
        n_metrics, n_obs = validate_metrics_json(doc)
        assert n_metrics >= 4
        assert n_obs >= 2
        assert doc["meta"]["suite"] == "test"
        assert doc["histograms"]["service.latency"]["count"] == 2
        assert doc["counters"]["service.requests"] == 2

    def test_default_trace_is_all_zero(self):
        trace = RequestTrace()
        assert trace.source == ""
        assert trace.latency == 0.0
        assert not trace.deduped
