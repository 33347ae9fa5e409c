"""The scheduling service: cached, deduplicated, concurrent construction.

:class:`Scheduler` is the long-lived front end the ROADMAP's serving
scenarios call into.  One request — ``(pattern, algorithm, machine,
params)`` — resolves through four tiers, cheapest first:

1. **exact hit** — the content-addressed :class:`ScheduleStore` holds a
   build for this very key and pattern; the stored bytes deserialize
   (once, into step columns) straight into the response
   (byte-identical to the cold build that produced them);
2. **isomorphic hit** — the key matched through canonical-form hashing
   but the stored entry was built for a *relabeling* of this pattern;
   the stored schedule's rank columns are relabeled through the two
   canonical seatings and re-validated with the linter before serving;
3. **warm start** — no key match, but a cached entry in the same
   (machine, algorithm, params) bucket is within a small edit distance;
   the cached schedule's columns are edited cell by cell, rebalanced
   with the healthy ordering of :func:`repro.schedules.repair.rank_steps`,
   and re-validated — the
   paper's "schedules outlive the iteration" argument applied to
   pattern drift (a mesh repartition moves a few halo edges, not the
   whole pattern);
4. **cold build** — the registered builder runs, optionally on the
   process-pool worker tier, and the result is linted and stored.

Concurrent identical requests are *single-flighted*: the first thread
builds, the rest wait on the same future, so a burst of N identical
requests costs one construction (and emits exactly one ``build/<name>``
span).  A waiter never serves the owner's bytes blindly — under
canonical keys two *distinct* relabel-isomorphic patterns share a
digest, so the waiter checks the published store entry against its own
pattern and falls back to the relabel+lint tier on a mismatch.
Hit/warm/miss traffic is mirrored to ``repro.obs`` counters
(``service.*``) and to the scheduler's own :class:`MetricsRegistry` so
a bench can report rates without installing a tracer.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..machine.params import MachineConfig
from ..obs.metrics import Counter, Histogram, MetricsRegistry
from ..obs.telemetry import merge_state, metrics_to_json, registry_state
from ..schedules.irregular import IRREGULAR_ALGORITHMS
from ..schedules.pattern import CommPattern
from ..schedules.repair import rank_steps
from ..schedules.schedule import Schedule, compact_steps
from ..schedules.serialize import schedule_from_json, schedule_to_json
from ..schedules.validate import lint_schedule, validate_schedule
from .keys import (
    ScheduleKey,
    canonical_form,
    derive_key,
    machine_fingerprint,
    params_fingerprint,
)
from .guard import (
    BREAKER_STATES,
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
from .pool import WorkerPool
from .store import ScheduleStore, StoreEntry
from .tracing import RequestTrace

__all__ = [
    "ServiceResponse",
    "Scheduler",
    "adapt_schedule",
    "drift_variant",
    "RequestTrace",
]

#: Response provenance values, cheapest tier first.
SOURCES = ("hit", "isomorphic", "warm", "cold")

#: Tier -> latency histogram, spelled out literally so the frozen
#: metric-name scan (tests/obs/test_telemetry.py) sees every name.
_TIER_LATENCY = {
    "hit": "service.latency.hit",
    "isomorphic": "service.latency.isomorphic",
    "warm": "service.latency.warm",
    "cold": "service.latency.cold",
}

#: ``ServiceError.counter`` -> frozen outcome-counter name, spelled as
#: literals so the frozen-name scan (tests/obs/test_telemetry.py) sees
#: them.  :meth:`Scheduler.request` bumps exactly one per failed
#: request — the reconciliation contract the chaos harness checks.
_OUTCOME_COUNTERS = {
    "deadline_exceeded": "service.guard.deadline_exceeded",
    "shed": "service.guard.shed",
}

#: params_fingerprint(None), precomputed for the common no-params call.
_NO_PARAMS_FP = params_fingerprint(None)

#: The policy ``guard=None`` stands for: no deadline, no admission
#: control, no retries.  A worker crash still feeds the default breaker,
#: respawns the pool and fails the build over inline.
_UNGUARDED = GuardConfig(max_retries=0)

#: Cap on each internal memo (keys, parsed schedules, adapted results):
#: a long-lived service under drifting traffic sheds stale memo entries
#: instead of growing without bound.  The store stays the durable tier.
_MEMO_LIMIT = 4096


def _crash_worker() -> None:
    """Kill the worker process that picks this job up (chaos injection).

    ``os._exit`` skips every cleanup handler — to the parent this is
    indistinguishable from a SIGKILLed or OOM-killed worker: the pool
    breaks and the pending future raises ``BrokenProcessPool``.  Only
    ever submitted to a real subprocess pool (``workers > 0``); the
    inline pool would take the parent down with it.
    """
    os._exit(13)


@dataclass(frozen=True)
class ServiceResponse:
    """One served schedule with provenance and timing."""

    schedule: Schedule
    serialized: str
    key: ScheduleKey
    #: "hit" | "isomorphic" | "warm" | "cold".
    source: str
    #: Wall seconds from request to response on the calling thread.
    latency: float
    #: Warm starts record how far the donor pattern was (matrix cells).
    edit_distance: int = 0
    #: True when this thread coalesced onto another thread's build.
    deduped: bool = False
    #: Stage-by-stage timing of the request, filled in by
    #: :meth:`Scheduler.request` when it returns.
    trace: Optional[RequestTrace] = None


def _build_serialized(
    matrix: List[List[int]],
    algorithm: str,
    params: Dict[str, object],
) -> str:
    """Cold build in (possibly) a worker process; returns schedule JSON.

    Module-level and argument-pure so the process-pool tier can pickle
    it; the parent deserializes, so the store's bytes are exactly the
    serialized form of the schedule every response hands out.
    """
    builder = IRREGULAR_ALGORITHMS[algorithm]
    schedule = builder(CommPattern(matrix), **params)
    return schedule_to_json(schedule)


def _build_with_telemetry(
    matrix: List[List[int]],
    algorithm: str,
    params: Dict[str, object],
) -> Tuple[str, Dict[str, object]]:
    """Cold build in a worker process, with its telemetry delta.

    A fresh tracer captures whatever the builder emits through
    :mod:`repro.obs` in the child, the build wall time lands in
    ``service.worker_build_seconds``, and the whole registry travels
    back as an exact :func:`~repro.obs.telemetry.registry_state` plus
    the build span — so parent-side accounting sees worker time instead
    of silently dropping it.  Used only when the pool really is a
    subprocess (``workers > 0``); inline builds hit the parent tracer
    directly and would double-count through this wrapper.
    """
    from ..obs.span import Tracer

    tracer = Tracer()
    with obs.tracing(tracer):
        t0 = time.perf_counter()
        serialized = _build_serialized(matrix, algorithm, params)
        dt = time.perf_counter() - t0
    tracer.metrics.histogram("service.worker_build_seconds").observe(dt)
    delta = {
        "metrics": registry_state(tracer.metrics),
        "spans": [(f"worker/build/{algorithm}", "worker", dt)],
    }
    return serialized, delta


def _relabel(schedule: Schedule, mapping: np.ndarray, name: str) -> Schedule:
    """Apply a rank mapping to every transfer (steps keep their order)."""
    cols = schedule.columns.copy()
    cols[1:3] = mapping[cols[1:3]]
    return Schedule(
        schedule.nprocs, cols, name, schedule.exchange_order
    )


def _base_name(name: str) -> str:
    for suffix in ("+warm", "+iso"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


def adapt_schedule(
    donor: Schedule,
    donor_pattern: np.ndarray,
    pattern: CommPattern,
    config: MachineConfig,
) -> Optional[Schedule]:
    """Warm-start repair: edit a cached schedule toward a near pattern.

    Three kinds of cell drift are patched in place: a changed byte count
    rewrites the transfer, a removed message drops it (and a step left
    empty with it), and an added message is packed first-fit into
    appended steps (one send per sender, one receive per receiver per
    new step, mirroring the matching-like structure every builder
    emits).  The edited step multiset is then re-sequenced by
    :func:`~repro.schedules.repair.rank_steps` with no fault model —
    the same root-traffic spreading
    :func:`~repro.schedules.repair.repair_schedule` applies, here
    rebalancing around the edits.  All of it reads and writes the
    donor's columns.

    Returns ``None`` for store-and-forward donors (their steps carry
    data dependencies; editing them is not sound).  Callers must lint
    the result against ``pattern`` before serving it.
    """
    if donor.nprocs != pattern.nprocs:
        return None
    cols = donor.columns
    if cols[4:].any():
        return None
    step, src, dst, nbytes = cols[:4]
    matrix = pattern.matrix
    want = matrix[src, dst]
    changed = want != donor_pattern[src, dst]
    keep = ~changed | (want > 0)
    step, src, dst = compact_steps(step[keep]), src[keep], dst[keep]
    nbytes = np.where(changed, want, nbytes)[keep]

    covered = np.zeros(matrix.shape, dtype=bool)
    covered[src, dst] = True
    ai, aj = np.nonzero((matrix > 0) & (donor_pattern == 0) & ~covered)
    base = int(step[-1]) + 1 if step.size else 0
    seats: List[Tuple[set, set]] = []  # each new step's senders, receivers
    new_step = []
    for i, j in zip(ai.tolist(), aj.tolist()):
        for k, (senders, receivers) in enumerate(seats):
            if i not in senders and j not in receivers:
                break
        else:
            k = len(seats)
            seats.append((set(), set()))
        seats[k][0].add(i)
        seats[k][1].add(j)
        new_step.append(base + k)
    nsteps = base + len(seats)
    if not nsteps:
        return None
    step = np.concatenate([step, np.array(new_step, dtype=np.int64)])
    src, dst = np.concatenate([src, ai]), np.concatenate([dst, aj])
    nbytes = np.concatenate([nbytes, matrix[ai, aj]])
    out = np.zeros((6, step.size), dtype=np.int64)
    out[:4] = step, src, dst, nbytes

    seat = np.empty(nsteps, dtype=np.int64)
    seat[rank_steps(out, nsteps, config)] = np.arange(nsteps)
    out[0] = seat[step]
    perm = np.argsort(out[0], kind="stable")
    return Schedule(
        donor.nprocs,
        out[:, perm],
        name=f"{_base_name(donor.name)}+warm",
        exchange_order=donor.exchange_order,
    )


def drift_variant(pattern: CommPattern, seed: int) -> CommPattern:
    """One-cell drift: a single message doubles in size.

    Models the per-iteration pattern drift of an adaptive application
    (a halo message grows after repartitioning); the result is a
    near-miss of the original at edit distance 1, i.e. warm-start bait.
    """
    rng = np.random.default_rng(seed)
    m = pattern.matrix.copy()
    nz = np.argwhere(m)
    i, j = nz[int(rng.integers(len(nz)))]
    m[i, j] = int(m[i, j]) * 2
    return CommPattern(m)


class Scheduler:
    """Long-lived scheduling service over a :class:`ScheduleStore`.

    ``workers`` sizes the process-pool tier for cold builds (0 builds
    inline on the calling thread — deterministic and span-visible, the
    right choice for tests and small patterns); the pool is created
    lazily on the first cold build and torn down by a finalizer even if
    the caller never calls :meth:`close`.  ``warm_edit_limit`` bounds
    how far a donor pattern may drift before warm start gives way to a
    cold build; ``lint_responses`` additionally lints *every* response
    before it leaves the service (cold, isomorphic and warm results are
    always linted regardless).

    ``guard`` (a :class:`~repro.service.guard.GuardConfig`) sets the
    overload-and-failure policy of the cold-build tier: per-request
    deadline budgets, bounded seeded-backoff retries around worker
    crashes, a circuit breaker over the worker tier, and admission
    control.  ``guard=None`` (the default) is the fixed policy
    ``GuardConfig(max_retries=0)``: no deadline unless a request passes
    one, no admission gate, no retries.  A worker crash still trips the
    default breaker after ``breaker_threshold`` in a row, respawns the
    pool and fails the build over inline, so single-flight waiters get
    a result instead of a poisoned executor.
    """

    def __init__(
        self,
        store: Optional[ScheduleStore] = None,
        workers: int = 0,
        warm_edit_limit: int = 4,
        canonicalize: bool = True,
        lint_responses: bool = False,
        guard: Optional[GuardConfig] = None,
    ):
        guard = guard or _UNGUARDED
        self.store = store if store is not None else ScheduleStore()
        self.workers = workers
        self.warm_edit_limit = warm_edit_limit
        self.canonicalize = canonicalize
        self.lint_responses = lint_responses
        self.guard = guard
        self.metrics = MetricsRegistry()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._backoff = BackoffPolicy.from_config(guard)
        self._breaker = CircuitBreaker(
            failure_threshold=guard.breaker_threshold,
            cooldown=guard.breaker_cooldown,
            clock=guard.clock,
            on_transition=self._on_breaker_transition,
            on_probe=lambda: self._count("service.guard.breaker_probes"),
        )
        self._gate: Optional[AdmissionGate] = None
        if guard.admission_capacity is not None:
            self._gate = AdmissionGate(
                capacity=guard.admission_capacity,
                queue_limit=guard.admission_queue,
                policy=guard.shed_policy,
                clock=guard.clock,
            )
        #: Per-thread DeadlineBudget of the request being served (only
        #: populated while a deadline is in force).
        self._budget_slot = threading.local()
        #: Per-thread slot holding the RequestTrace of the request this
        #: thread is currently serving (tier methods record into it
        #: without threading it through every signature).
        self._trace_slot = threading.local()
        self._pool: Optional[WorkerPool] = None
        self._inflight: Dict[str, Future] = {}
        #: Relabeled/adapted results memoized by exact pattern digest so
        #: repeated near-miss traffic stays warm without ever entering
        #: the store (store bytes stay byte-identical to cold builds).
        self._warm: Dict[Tuple[str, bytes], Tuple[str, str, int]] = {}
        #: (pattern bytes, algorithm, machine, params) -> ScheduleKey.
        #: Key derivation canonicalizes the pattern graph, which costs
        #: more than a small cold build; repeat traffic must not pay it.
        self._keys: Dict[Tuple[bytes, str, str, str], ScheduleKey] = {}
        #: serialized -> Schedule, so hits skip re-parsing the JSON.
        #: Schedule is frozen; sharing one instance across responses is
        #: sound.
        self._schedules: Dict[str, Schedule] = {}

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> WorkerPool:
        """Create the worker tier on first use, with a GC backstop.

        Lazy creation means a scheduler that only ever serves from the
        cache spawns no worker processes, and a scheduler that is never
        :meth:`close`\\ d cannot leak an idle executor for the process
        lifetime — the finalizer (which holds the pool, not ``self``)
        shuts the executor down when the scheduler is collected.
        """
        with self._lock:
            pool = self._pool
            if pool is None:
                pool = WorkerPool(self.workers).__enter__()
                self._pool = pool
                weakref.finalize(self, pool.shutdown)
        return pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _count(self, name: str, value: Optional[float] = None) -> None:
        # Each metric is looked up in the registry once, on its first
        # update, so the registry (and ``stats()``) still lists only the
        # metrics that fired.
        if value is None:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = self.metrics.counter(name)
            counter.inc()
            obs.count(name)
        else:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = self.metrics.histogram(name)
            histogram.observe(value)
            obs.observe(name, value)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: requests, hits, warm hits, cold builds..."""
        return {
            name: c.value for name, c in sorted(self.metrics.counters.items())
        }

    def metrics_snapshot(
        self, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """The service registry as a ``repro-metrics/1`` document.

        Counters, tier-latency histograms and stage timings in the
        exposition schema (:mod:`repro.obs.telemetry`) — mergeable with
        other processes' snapshots and renderable with ``repro metrics``.
        """
        return metrics_to_json(self.metrics, meta=meta)

    def _trace(self) -> Optional[RequestTrace]:
        """The trace of the request this thread is serving, if any."""
        return getattr(self._trace_slot, "trace", None)

    def _budget(self) -> Optional[DeadlineBudget]:
        """The deadline budget of this thread's current request."""
        return getattr(self._budget_slot, "budget", None)

    def _on_breaker_transition(self, state: str) -> None:
        """Mirror breaker state into the gauge; count trips."""
        idx = float(BREAKER_STATES.index(state))
        self.metrics.gauge("service.guard.breaker_state").set(idx)
        tracer = obs.current()
        if tracer is not None:
            tracer.metrics.gauge("service.guard.breaker_state").set(idx)
        if state == "open":
            self._count("service.guard.breaker_trips")

    def _fail(
        self, exc: ServiceError, trace: RequestTrace, t0: float
    ) -> ServiceError:
        """Finalize a failed request: trace, outcome counter, fresh error.

        Always returns a *clone*: a single-flight owner's error instance
        is shared by every waiter (it rides the future), so annotating
        it in place would let concurrent requests clobber each other's
        traces.  Exactly one outcome counter fires per failed request —
        the reconciliation contract the chaos harness checks.
        """
        err = exc.clone()
        trace.source = "error"
        trace.latency = time.perf_counter() - t0
        if isinstance(err, ServiceOverloaded):
            trace.shed_reason = str(err.fields.get("shed_reason", ""))
        trace.breaker_state = self._breaker.state
        err.trace = trace
        name = _OUTCOME_COUNTERS.get(err.counter)
        if name is not None:
            self._count(name)
        return err

    def _merge_worker_delta(self, delta: Dict[str, object]) -> None:
        """Fold a worker process's telemetry delta into parent state.

        The metric state merges into the service registry and (when
        tracing is on) the active tracer's registry; child spans replay
        as external spans under the current ``service/build`` span.
        Merges happen on the owning request's thread right after the
        pool future resolves, so they are ordered and deterministic for
        a given request interleaving.
        """
        state = delta.get("metrics", {})
        merge_state(self.metrics, state)  # type: ignore[arg-type]
        tracer = obs.current()
        spans = delta.get("spans", ())
        if tracer is not None:
            merge_state(tracer.metrics, state)  # type: ignore[arg-type]
            for name, category, duration in spans:  # type: ignore[misc]
                tracer.record_external(name, category, duration)
        trace = self._trace()
        if trace is not None:
            trace.worker_build_seconds += sum(
                duration for _, _, duration in spans  # type: ignore[misc]
            )

    def _memo_put(self, memo: Dict, key, value) -> None:
        """Bounded memo insert: evict oldest entries past ``_MEMO_LIMIT``.

        Insertion-order (FIFO) eviction, not true LRU — the memos are
        re-populated from the store on the next request, so shedding a
        hot entry costs one re-parse/re-adapt, never correctness.
        """
        with self._lock:
            memo[key] = value
            while len(memo) > _MEMO_LIMIT:
                memo.pop(next(iter(memo)))

    def _lint(self, schedule: Schedule, pattern: CommPattern):
        """Lint with the time charged to the current request's trace."""
        t0 = time.perf_counter()
        report = lint_schedule(schedule, pattern)
        trace = self._trace()
        if trace is not None:
            trace.lint_seconds += time.perf_counter() - t0
        return report

    def _deserialize(self, serialized: str) -> Schedule:
        """Parse schedule JSON once per distinct byte string."""
        schedule = self._schedules.get(serialized)
        if schedule is None:
            schedule = schedule_from_json(serialized)
            self._memo_put(self._schedules, serialized, schedule)
        return schedule

    # ------------------------------------------------------------------
    def request(
        self,
        pattern: CommPattern,
        algorithm: str,
        config: Optional[MachineConfig] = None,
        params: Optional[Mapping[str, object]] = None,
        deadline: Optional[float] = None,
    ) -> ServiceResponse:
        """Serve one schedule, consulting every tier (see module doc).

        ``deadline`` (seconds) overrides the guard's default per-request
        budget; when the budget runs out the request fails with
        :class:`DeadlineExceeded` instead of waiting.
        """
        if algorithm not in IRREGULAR_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(IRREGULAR_ALGORITHMS)}"
            )
        if config is None:
            config = MachineConfig(pattern.nprocs)
        if config.nprocs != pattern.nprocs:
            raise ValueError(
                f"machine has {config.nprocs} nodes, pattern has "
                f"{pattern.nprocs}"
            )
        t0 = time.perf_counter()
        self._count("service.requests")
        trace = RequestTrace()
        if deadline is None:
            deadline = self.guard.deadline
        # The budget slot is touched only while a deadline is in force:
        # a thread-local read costs about as much as a breaker lookup,
        # and the hit path pays for neither.
        if deadline is not None:
            trace.deadline = deadline
            prev_budget = self._budget()
            self._budget_slot.budget = DeadlineBudget(
                deadline, clock=self.guard.clock
            )
        prev_trace = self._trace()
        self._trace_slot.trace = trace
        try:
            pbytes = pattern.matrix.tobytes()
            memo_key = (
                pbytes,
                algorithm,
                machine_fingerprint(config),
                params_fingerprint(params) if params else _NO_PARAMS_FP,
            )
            key = self._keys.get(memo_key)
            if key is None:
                key = derive_key(
                    pattern,
                    algorithm,
                    config,
                    params,
                    canonicalize=self.canonicalize,
                )
                self._memo_put(self._keys, memo_key, key)

            response = self._serve_cached(key, pattern, pbytes, config, t0)
            if response is None:
                response = self._single_flight(
                    key, pattern, pbytes, config, params, t0
                )
            if self.lint_responses:
                t_lint = time.perf_counter()
                validate_schedule(response.schedule, pattern)
                trace.lint_seconds += time.perf_counter() - t_lint
        except ServiceError as exc:
            raise self._fail(exc, trace, t0) from exc
        finally:
            self._trace_slot.trace = prev_trace
            if deadline is not None:
                self._budget_slot.budget = prev_budget
        trace.source = response.source
        trace.latency = response.latency
        trace.deduped = response.deduped
        trace.edit_distance = response.edit_distance
        self._count("service.latency", response.latency)
        self._count(_TIER_LATENCY[response.source], response.latency)
        if trace.lint_seconds:
            self._count("service.lint_seconds", trace.lint_seconds)
        if trace.singleflight_wait:
            self._count(
                "service.singleflight_wait_seconds", trace.singleflight_wait
            )
        return response

    # ------------------------------------------------------------------
    def _serve_cached(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        pbytes: bytes,
        config: MachineConfig,
        t0: float,
    ) -> Optional[ServiceResponse]:
        entry = self.store.get(key)
        if entry is not None:
            if entry.pattern_bytes == pbytes:
                self._count("service.hits")
                return ServiceResponse(
                    schedule=self._deserialize(entry.serialized),
                    serialized=entry.serialized,
                    key=key,
                    source="hit",
                    latency=time.perf_counter() - t0,
                    trace=self._trace(),
                )
            iso = self._serve_isomorphic(key, entry, pattern, pbytes, t0)
            if iso is not None:
                return iso
        return self._serve_warm(key, pattern, pbytes, config, t0)

    def _memoized_warm(
        self, key: ScheduleKey, pbytes: bytes, t0: float
    ) -> Optional[ServiceResponse]:
        memo = self._warm.get((key.digest, pbytes))
        if memo is None:
            return None
        serialized, source, dist = memo
        self._count(
            "service.warm_hits" if source == "warm" else "service.iso_hits"
        )
        return ServiceResponse(
            schedule=self._deserialize(serialized),
            serialized=serialized,
            key=key,
            source=source,
            latency=time.perf_counter() - t0,
            trace=self._trace(),
            edit_distance=dist,
        )

    def _serve_isomorphic(
        self,
        key: ScheduleKey,
        entry: StoreEntry,
        pattern: CommPattern,
        pbytes: bytes,
        t0: float,
    ) -> Optional[ServiceResponse]:
        """Relabel a canonical-key hit built for an isomorphic pattern."""
        memo = self._memoized_warm(key, pbytes, t0)
        if memo is not None:
            return memo
        if entry.order is None or not key.canonical:
            return None
        _, order = canonical_form(pattern)
        if order is None:
            return None
        with obs.span(
            "service/relabel", category="service", nprocs=pattern.nprocs
        ):
            # entry rank r sits at canonical seat pos0[r]; the requested
            # pattern seats rank order[pos0[r]] there.
            pos0 = np.empty(len(entry.order), dtype=np.int64)
            pos0[entry.order] = np.arange(len(entry.order))
            mapping = order[pos0]
            donor = self._deserialize(entry.serialized)
            relabeled = _relabel(
                donor, mapping, f"{_base_name(donor.name)}+iso"
            )
            report = self._lint(relabeled, pattern)
        if not report.ok:
            self._count("service.iso_rejects")
            return None
        serialized = schedule_to_json(relabeled)
        self._memo_put(
            self._warm, (key.digest, pbytes), (serialized, "isomorphic", 0)
        )
        self._memo_put(self._schedules, serialized, relabeled)
        self._count("service.iso_hits")
        return ServiceResponse(
            schedule=relabeled,
            serialized=serialized,
            key=key,
            source="isomorphic",
            latency=time.perf_counter() - t0,
            trace=self._trace(),
        )

    def _serve_warm(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        pbytes: bytes,
        config: MachineConfig,
        t0: float,
    ) -> Optional[ServiceResponse]:
        memo = self._memoized_warm(key, pbytes, t0)
        if memo is not None:
            return memo
        if self.warm_edit_limit <= 0:
            return None
        for dist, entry in self.store.near_misses(
            key, pattern, self.warm_edit_limit
        ):
            with obs.span(
                "service/warm_adapt",
                category="service",
                nprocs=pattern.nprocs,
                edits=dist,
            ):
                donor = self._deserialize(entry.serialized)
                adapted = adapt_schedule(
                    donor, entry.pattern, pattern, config
                )
                if adapted is None:
                    continue
                report = self._lint(adapted, pattern)
            if not report.ok:
                self._count("service.warm_rejects")
                continue
            serialized = schedule_to_json(adapted)
            self._memo_put(
                self._warm, (key.digest, pbytes), (serialized, "warm", dist)
            )
            self._memo_put(self._schedules, serialized, adapted)
            self._count("service.warm_hits")
            return ServiceResponse(
                schedule=adapted,
                serialized=serialized,
                key=key,
                source="warm",
                latency=time.perf_counter() - t0,
                trace=self._trace(),
                edit_distance=dist,
            )
        return None

    # ------------------------------------------------------------------
    def _single_flight(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        pbytes: bytes,
        config: MachineConfig,
        params: Optional[Mapping[str, object]],
        t0: float,
    ) -> ServiceResponse:
        """Cold build with in-flight deduplication.

        The first thread to miss on a digest owns the build; every
        concurrent request on the same digest waits on the owner's
        future.  A waiter only takes the owner's bytes verbatim when
        the published store entry covers its *exact* pattern — under
        canonical keys the digest is shared by every relabeling of the
        pattern, and the owner may have built for a different one, in
        which case the waiter re-resolves through the relabel+lint
        tiers (and cold-builds itself if even those reject).
        """
        digest = key.digest
        with self._lock:
            future = self._inflight.get(digest)
            owner = future is None
            if owner:
                future = Future()
                self._inflight[digest] = future
        if not owner:
            t_wait = time.perf_counter()
            budget = self._budget()
            if budget is not None:
                # Deadline-bounded wait on the owner.  The wait itself
                # runs on real time while the budget runs on the
                # guard's (possibly injected) clock, so a timeout is
                # re-checked against the budget before giving up.
                while True:
                    rem = budget.remaining()
                    if rem is not None and rem <= 0.0:
                        budget.check("wait")
                    try:
                        future.result(timeout=rem)
                        break
                    except FuturesTimeoutError:
                        continue
            else:
                future.result()  # wait for the owner; surfaces its error
            trace = self._trace()
            if trace is not None:
                trace.singleflight_wait += time.perf_counter() - t_wait
            # The owner stores its entry before resolving the future.
            entry = self.store.get(key)
            if entry is not None and entry.pattern_bytes == pbytes:
                self._count("service.inflight_dedup")
                return ServiceResponse(
                    schedule=self._deserialize(entry.serialized),
                    serialized=entry.serialized,
                    key=key,
                    source="cold",
                    latency=time.perf_counter() - t0,
                    trace=self._trace(),
                    deduped=True,
                )
            response = self._serve_cached(key, pattern, pbytes, config, t0)
            if response is not None:
                return response
            return self._single_flight(
                key, pattern, pbytes, config, params, t0
            )
        try:
            serialized = self._cold_build(key, pattern, config, params)
        except BaseException as exc:
            future.set_exception(exc)
            with self._lock:
                self._inflight.pop(digest, None)
            raise
        future.set_result(serialized)
        with self._lock:
            self._inflight.pop(digest, None)
        self._count("service.cold_builds")
        return ServiceResponse(
            schedule=self._deserialize(serialized),
            serialized=serialized,
            key=key,
            source="cold",
            latency=time.perf_counter() - t0,
            trace=self._trace(),
        )

    def _cold_build(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        config: MachineConfig,
        params: Optional[Mapping[str, object]],
    ) -> str:
        gate = self._gate
        if gate is None:
            return self._cold_build_inner(key, pattern, config, params)
        # Admission happens on the single-flight *owner* only: waiters
        # coalesce for free, so the gate bounds concurrent builds, not
        # concurrent requests.  A shed/expired owner propagates its
        # structured error to every waiter through the in-flight future.
        budget = self._budget()
        t_adm = time.perf_counter()
        gate.acquire(budget)
        wait = time.perf_counter() - t_adm
        trace = self._trace()
        if trace is not None:
            trace.admission_wait += wait
        self._count("service.guard.admission_wait_seconds", wait)
        t_held = time.perf_counter()
        try:
            return self._cold_build_inner(key, pattern, config, params)
        finally:
            gate.release(build_seconds=time.perf_counter() - t_held)

    def _cold_build_inner(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        config: MachineConfig,
        params: Optional[Mapping[str, object]],
    ) -> str:
        kwargs = dict(params or {})
        t_build = time.perf_counter()
        with obs.span(
            f"service/build/{key.algorithm}",
            category="service",
            nprocs=pattern.nprocs,
        ):
            serialized = self._guarded_build(key, pattern, kwargs)
        build_dt = time.perf_counter() - t_build
        trace = self._trace()
        if trace is not None:
            trace.build_seconds += build_dt
            trace.breaker_state = self._breaker.state
        self._count("service.build_seconds", build_dt)
        schedule = schedule_from_json(serialized)
        validate_schedule(schedule, pattern)
        self._memo_put(self._schedules, serialized, schedule)
        order = None
        if key.canonical:
            _, order = canonical_form(pattern)
        staged = bool(schedule.columns[4:].any())
        self.store.put(
            StoreEntry(
                key=key,
                pattern=pattern.matrix.copy(),
                order=order,
                serialized=serialized,
                staged=staged,
            )
        )
        return serialized

    # ------------------------------------------------------------------
    def _chaos_action(self, attempt: int) -> Tuple[Optional[str], float]:
        """Consult the guard's chaos port; ``(None, 0.0)`` when quiet."""
        hook = self.guard.chaos_hook
        if hook is None:
            return None, 0.0
        injected = hook("build", attempt)
        if injected is None:
            return None, 0.0
        action, value = injected
        self._count("service.guard.chaos_injections")
        return action, float(value)

    def _guarded_build(
        self,
        key: ScheduleKey,
        pattern: CommPattern,
        kwargs: Dict[str, object],
    ) -> str:
        """Cold build under the guard policy.

        One loop iteration is one attempt: consult the chaos port,
        honor the deadline, then build on the worker tier when the
        breaker allows it (inline otherwise).  Worker crashes feed the
        breaker, respawn the pool and retry after a seeded backoff;
        exhausted retries fail over to an inline build.
        """
        guard = self.guard
        breaker = self._breaker
        budget = self._budget()
        trace = self._trace()
        matrix = pattern.matrix.tolist()
        attempt = 0
        while True:
            if budget is not None:
                budget.check("build")
            action, value = self._chaos_action(attempt)
            try:
                if action == "fail_transient":
                    raise TransientBuildError(
                        f"injected transient build failure "
                        f"(attempt {attempt})"
                    )
                if action == "slow_build":
                    guard.sleep(value)
                    if budget is not None:
                        budget.check("build")
                # allow_worker may claim the single half-open probe
                # slot, so nothing below may exit without reaching
                # record_success/record_failure — every worker outcome
                # resolves the probe.
                use_worker = self.workers > 0 and breaker.allow_worker()
                if use_worker:
                    pool = self._ensure_pool()
                    try:
                        if action == "kill_worker":
                            pool.submit(_crash_worker).result()
                        serialized, delta = pool.submit(
                            _build_with_telemetry,
                            matrix,
                            key.algorithm,
                            kwargs,
                        ).result()
                    except BrokenExecutor:
                        breaker.record_failure()
                        self._count("service.guard.worker_crashes")
                        if trace is not None:
                            trace.worker_crashes += 1
                        pool.respawn()
                        raise
                    except BaseException:
                        # The worker ran the job and returned a builder
                        # error: the tier is healthy, the build is not.
                        breaker.record_success()
                        raise
                    breaker.record_success()
                    self._merge_worker_delta(delta)
                    return serialized
                return _build_serialized(matrix, key.algorithm, kwargs)
            except (BrokenExecutor, TransientBuildError) as exc:
                attempt += 1
                if attempt > guard.max_retries:
                    self._count("service.guard.inline_failovers")
                    if trace is not None:
                        trace.inline_failover = True
                    return _build_serialized(matrix, key.algorithm, kwargs)
                delay = self._backoff.delay(attempt)
                if budget is not None:
                    rem = budget.remaining()
                    if rem is not None and delay >= rem:
                        # Sleeping through the deadline cannot help;
                        # fail now with the backoff stage on record.
                        raise DeadlineExceeded(
                            f"deadline of {budget.budget:.6g}s cannot "
                            f"cover a {delay:.6g}s backoff before "
                            f"retry {attempt}",
                            deadline=budget.budget,
                            elapsed=round(budget.elapsed(), 6),
                            stage="backoff",
                        ) from exc
                if trace is not None:
                    trace.retries += 1
                    trace.backoff_seconds += delay
                self._count("service.guard.retries")
                self._count("service.guard.backoff_seconds", delay)
                guard.sleep(delay)
