"""Streaming workload driver and service benchmark.

Models a serving front end under sustained traffic: a corpus of
distinct communication patterns (the paper's Table 11 synthetic grid,
optionally the Table 12 application patterns), a Zipf-distributed
request mix over that corpus (a few hot patterns dominate — the shape
that makes a schedule cache an artery rather than an ornament), and a
pluggable arrival process shaping the offered load.

The driver serves every request through a :class:`Scheduler`, measures
per-request service latency on the wall clock, and replays the arrival
timestamps through a virtual single-queue model to get sojourn times —
so a bursty arrival process shows up in p99 without the bench ever
sleeping.  The *naive* baseline rebuilds every request cold through the
same builder registry, giving an honest schedules/sec speedup for the
cache + dedup + warm tiers.

The JSON document (schema ``repro-bench-service/3``)::

    {
      "schema": "repro-bench-service/3",
      "scale": "full" | "quick" | "custom",
      "workloads": {
        "zipf_n16_s1.1_poisson": {
          "wall_seconds": ...,         # serving wall clock
          "naive_wall_seconds": ...,   # cold-rebuild-everything wall
          "speedup": ...,              # naive / served
          "schedules_per_sec": ...,
          "p50_ms": ..., "p99_ms": ...,  # sojourn times, virtual queue
          "hit_rate": ..., "warm_hit_rate": ...,
          "requests": ..., "corpus": ..., "lint_failures": 0,
          "counters": {"service.hits": ..., ...},
          "tier_latency_ms": {         # per serving tier (schema /2)
            "hit": {"count": ..., "p50": ..., "p90": ..., "p99": ...},
            ...
          },
          "sojourn_histogram": {       # virtual-queue sojourn (schema /2)
            "count": ..., "p50_ms": ..., "p90_ms": ..., "p99_ms": ...,
            "state": {...}             # exact log-bucket Histogram state
          },
          "deadline_miss_rate": 0.0,   # guard view (schema /3)
          "shed_rate": 0.0
        }, ...
      }
    }

Schema ``/2`` adds the SLO view — per-tier latency percentiles read
from the scheduler's tier-labeled histograms and the sojourn-time
distribution as an exact :class:`~repro.obs.metrics.Histogram` state —
on top of ``/1``'s shared fields.  Schema ``/3`` adds the guard view:
the fraction of offered requests that missed their deadline
(``deadline_miss_rate``) or were shed by admission control
(``shed_rate``); both are exactly ``0.0`` when the cell runs without a
:class:`~repro.service.guard.GuardConfig` and without a deadline.
``perfcmp`` compares only documents of the same schema version.

``repro serve-bench`` drives this and fails (exit 1) when a served
schedule fails the linter or the hit rate is zero — the regression a
serving layer must never ship.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..machine.params import MachineConfig
from ..schedules.irregular import IRREGULAR_ALGORITHMS
from ..schedules.pattern import CommPattern
from ..schedules.validate import lint_schedule
from .arrivals import make_arrivals
from .guard import DeadlineExceeded, GuardConfig, ServiceError, ServiceOverloaded
from .scheduler import SOURCES, Scheduler, ServiceResponse
from .store import ScheduleStore

__all__ = [
    "SERVICE_SCHEMA",
    "pattern_corpus",
    "zipf_mix",
    "drift_variant",
    "request_stream",
    "drive_workload",
    "run_service_bench",
    "render_service_bench",
    "write_service_bench",
]

SERVICE_SCHEMA = "repro-bench-service/3"

#: Table 11's synthetic grid: densities x message sizes.
_DENSITIES = (0.10, 0.25, 0.50, 0.75)
_SIZES = (16, 64, 256, 1024)


def pattern_corpus(
    nprocs: int,
    size: int,
    seed: int = 0,
    include_apps: bool = False,
) -> List[Tuple[str, CommPattern]]:
    """``size`` distinct named patterns in the Table 11/12 style.

    Sweeps the paper's density x message-size grid with fresh generator
    seeds until ``size`` patterns exist; ``include_apps`` prepends the
    Table 12 application patterns (mesh -> RCB -> halo), which cost a
    partitioning run each and so default off for quick benches.
    """
    if size < 1:
        raise ValueError(f"corpus size must be >= 1, got {size}")
    corpus: List[Tuple[str, CommPattern]] = []
    if include_apps:
        from ..apps.workloads import paper_workload, workload_names

        for name in workload_names():
            if len(corpus) >= size:
                break
            corpus.append((name, paper_workload(name, nprocs).pattern))
    gen_seed = seed
    while len(corpus) < size:
        for density in _DENSITIES:
            for nbytes in _SIZES:
                if len(corpus) >= size:
                    break
                corpus.append(
                    (
                        f"t11_d{int(density * 100)}_b{nbytes}_s{gen_seed}",
                        CommPattern.synthetic(
                            nprocs, density, nbytes, seed=gen_seed
                        ),
                    )
                )
        gen_seed += 1
    return corpus


def zipf_mix(
    n_requests: int, corpus_size: int, skew: float, seed: int = 0
) -> List[int]:
    """Zipf(``skew``)-distributed corpus indices for each request.

    Popularity rank r (0 = hottest) gets probability proportional to
    ``1 / (r + 1) ** skew``; ranks are assigned to corpus indices by a
    seeded shuffle so popularity is independent of generator order.
    ``skew = 0`` degenerates to uniform.
    """
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(corpus_size)
    weights = 1.0 / np.arange(1, corpus_size + 1, dtype=float) ** skew
    probs = weights / weights.sum()
    draws = rng.choice(corpus_size, size=n_requests, p=probs)
    return [int(ranks[d]) for d in draws]


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


def request_stream(
    corpus: List[Tuple[str, CommPattern]],
    mix: List[int],
    drift: float = 0.0,
    seed: int = 0,
) -> List[Tuple[str, CommPattern]]:
    """Resolve a Zipf mix into (name, pattern) requests with drift.

    A ``drift`` fraction of requests swap in the drifted variant of
    their pattern — near-misses that exercise the warm-start tier.
    Each corpus entry has one fixed variant, so repeated drifted
    requests stay memoizable the way a real iterating application's
    would.
    """
    if not 0.0 <= drift <= 1.0:
        raise ValueError(f"drift must be in [0, 1], got {drift}")
    variants: Dict[int, Tuple[str, CommPattern]] = {}
    rng = np.random.default_rng(seed + 1)
    drifted = rng.random(len(mix)) < drift
    stream: List[Tuple[str, CommPattern]] = []
    for idx, use_variant in zip(mix, drifted):
        if use_variant:
            if idx not in variants:
                name, pattern = corpus[idx]
                variants[idx] = (
                    f"{name}~drift",
                    drift_variant(pattern, seed + idx),
                )
            stream.append(variants[idx])
        else:
            stream.append(corpus[idx])
    return stream


def _sojourn_times(
    arrival: str,
    rate: float,
    seed: int,
    service_s: List[float],
    clients: int = 4,
) -> List[float]:
    """Virtual-queue sojourn time per request (seconds).

    Open processes fix arrival timestamps up front; a single virtual
    server works them off in order (completion ``C_i = max(A_i,
    C_{i-1}) + S_i``), so bursts queue and the tail grows.  The
    closed-loop process instead re-times each client's next arrival a
    think-gap after its previous completion, so sojourn stays near the
    bare service time — load follows capacity.
    """
    n = len(service_s)
    proc = make_arrivals(arrival, rate, seed)
    gaps = proc.times(n)
    out: List[float] = []
    if proc.closed:
        client_free = [0.0] * clients
        server_free = 0.0
        for i, s in enumerate(service_s):
            c = i % clients
            a = client_free[c] + gaps[i]
            start = max(a, server_free)
            done = start + s
            server_free = done
            client_free[c] = done
            out.append(done - a)
    else:
        prev_done = 0.0
        for a, s in zip(gaps, service_s):
            done = max(a, prev_done) + s
            prev_done = done
            out.append(done - a)
    return out


def drive_workload(
    scheduler: Scheduler,
    stream: List[Tuple[str, CommPattern]],
    algorithm: str,
    config: MachineConfig,
    progress: Optional[Callable[[str], None]] = None,
    deadline: Optional[float] = None,
    errors: Optional[List[ServiceError]] = None,
    served: Optional[List[Tuple[str, CommPattern]]] = None,
) -> Tuple[List[ServiceResponse], float]:
    """Serve the request stream; returns responses and serving wall.

    When ``errors`` is given, structured :class:`ServiceError` failures
    (deadline misses, shed requests, crashes) are collected there
    instead of propagating — the bench keeps serving the rest of the
    stream and reports miss/shed rates.  Without it, any guard failure
    raises (the pre-guard contract).  ``served``, when given, receives
    the stream entry of each successful response in order, so callers
    can pair responses with patterns even after drops.
    """
    responses: List[ServiceResponse] = []
    t0 = time.perf_counter()
    for i, entry in enumerate(stream):
        try:
            responses.append(
                scheduler.request(
                    entry[1], algorithm, config, deadline=deadline
                )
            )
            if served is not None:
                served.append(entry)
        except ServiceError as exc:
            if errors is None:
                raise
            errors.append(exc)
        if progress is not None and (i + 1) % 1000 == 0:
            progress(f"  served {i + 1}/{len(stream)} requests")
    return responses, time.perf_counter() - t0


def _naive_wall(
    stream: List[Tuple[str, CommPattern]], algorithm: str
) -> float:
    """Wall clock of rebuilding every request cold (no cache, no dedup)."""
    builder = IRREGULAR_ALGORITHMS[algorithm]
    t0 = time.perf_counter()
    for _, pattern in stream:
        builder(pattern)
    return time.perf_counter() - t0


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def run_service_cell(
    nprocs: int,
    corpus_size: int,
    requests: int,
    skew: float = 1.1,
    arrival: str = "poisson",
    algorithm: str = "greedy",
    rate: float = 200.0,
    drift: float = 0.1,
    workers: int = 0,
    warm_edit_limit: int = 4,
    seed: int = 0,
    include_apps: bool = False,
    measure_naive: bool = True,
    store: Optional[ScheduleStore] = None,
    progress: Optional[Callable[[str], None]] = None,
    guard: Optional[GuardConfig] = None,
    deadline: Optional[float] = None,
) -> Dict[str, object]:
    """One bench cell: corpus -> Zipf stream -> scheduler -> metrics.

    ``guard``/``deadline`` arm the reliability guardrails for the cell;
    structured failures are counted instead of raised.  The default
    (both None) can neither miss a deadline nor shed, so it reports
    ``deadline_miss_rate`` / ``shed_rate`` of 0.0.
    """
    corpus = pattern_corpus(
        nprocs, corpus_size, seed=seed, include_apps=include_apps
    )
    mix = zipf_mix(requests, len(corpus), skew, seed=seed)
    stream = request_stream(corpus, mix, drift=drift, seed=seed)
    config = MachineConfig(nprocs)
    errors: List[ServiceError] = []
    served: List[Tuple[str, CommPattern]] = []
    with Scheduler(
        store=store,
        workers=workers,
        warm_edit_limit=warm_edit_limit,
        guard=guard,
    ) as scheduler:
        responses, wall = drive_workload(
            scheduler,
            stream,
            algorithm,
            config,
            progress,
            deadline=deadline,
            errors=errors,
            served=served,
        )
        counters = scheduler.stats()

    lint_failures = 0
    # Memoized per (schedule, pattern) *pair* — the same serialized
    # schedule can legitimately pair with distinct patterns (dedup over
    # isomorphic traffic), and each pairing needs its own verdict.
    seen: Dict[Tuple[str, bytes], bool] = {}
    for resp, (_, pattern) in zip(responses, served):
        pair = (resp.serialized, pattern.matrix.tobytes())
        ok = seen.get(pair)
        if ok is None:
            ok = lint_schedule(resp.schedule, pattern).ok
            seen[pair] = ok
        lint_failures += not ok

    service_s = [r.latency for r in responses]
    sojourn = _sojourn_times(arrival, rate, seed, service_s)
    n = len(responses)
    # The scheduler registry outlives the closed scheduler; the virtual
    # queue is the driver's, so the driver owns the sojourn histogram.
    registry = scheduler.metrics
    sojourn_hist = registry.histogram("service.sojourn_seconds")
    for v in sojourn:
        sojourn_hist.observe(v)
    tier_latency_ms: Dict[str, Dict[str, object]] = {}
    for tier in SOURCES:
        h = registry.histograms.get(f"service.latency.{tier}")
        if h is not None and h.count:
            tier_latency_ms[tier] = {
                "count": h.count,
                "p50": round(h.p50 * 1e3, 4),
                "p90": round(h.p90 * 1e3, 4),
                "p99": round(h.p99 * 1e3, 4),
            }
    hits = counters.get("service.hits", 0) + counters.get(
        "service.inflight_dedup", 0
    )
    warm = counters.get("service.warm_hits", 0) + counters.get(
        "service.iso_hits", 0
    )
    naive = _naive_wall(stream, algorithm) if measure_naive else 0.0
    offered = len(stream)
    misses = sum(isinstance(e, DeadlineExceeded) for e in errors)
    sheds = sum(isinstance(e, ServiceOverloaded) for e in errors)
    return {
        "wall_seconds": round(wall, 4),
        "naive_wall_seconds": round(naive, 4),
        "speedup": round(naive / wall, 2) if wall > 0 and naive > 0 else 0.0,
        "schedules_per_sec": round(n / wall, 1) if wall > 0 else 0.0,
        "p50_ms": round(_percentile(sojourn, 50) * 1e3, 4),
        "p99_ms": round(_percentile(sojourn, 99) * 1e3, 4),
        "hit_rate": round(hits / n, 4) if n else 0.0,
        "warm_hit_rate": round(warm / n, 4) if n else 0.0,
        "requests": n,
        "corpus": len(corpus),
        "lint_failures": lint_failures,
        "counters": counters,
        "tier_latency_ms": tier_latency_ms,
        "sojourn_histogram": {
            "count": sojourn_hist.count,
            "p50_ms": round(sojourn_hist.p50 * 1e3, 4),
            "p90_ms": round(sojourn_hist.p90 * 1e3, 4),
            "p99_ms": round(sojourn_hist.p99 * 1e3, 4),
            "state": sojourn_hist.state(),
        },
        "deadline_miss_rate": round(misses / offered, 4) if offered else 0.0,
        "shed_rate": round(sheds / offered, 4) if offered else 0.0,
    }


def run_service_bench(
    quick: bool = False,
    skew: float = 1.1,
    arrival: str = "poisson",
    algorithm: str = "greedy",
    drift: float = 0.1,
    workers: int = 0,
    seed: int = 0,
    corpus_size: Optional[int] = None,
    requests: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    guard: Optional[GuardConfig] = None,
    deadline: Optional[float] = None,
) -> Dict[str, object]:
    """The canonical service bench: Zipf mix at N in {8, 16}.

    ``quick`` shrinks corpus and request counts to CI scale;
    ``corpus_size`` / ``requests`` override the per-cell defaults.
    The committed artifact runs unguarded (``guard=None``) — arming
    ``guard``/``deadline`` is for SLO experiments, not the baseline.
    """
    cells = (
        ((8, 50, 400), (16, 50, 400))
        if quick
        else ((8, 64, 24000), (16, 64, 24000))
    )
    # Resolve scale before the loop below rebinds corpus_size/requests.
    if corpus_size is not None or requests is not None:
        scale = "custom"
    else:
        scale = "quick" if quick else "full"
    cells = tuple(
        (n, corpus_size or c, requests or r) for n, c, r in cells
    )
    workloads: Dict[str, object] = {}
    for nprocs, corpus_size, requests in cells:
        name = f"zipf_n{nprocs}_s{skew:g}_{arrival}"
        if progress is not None:
            progress(
                f"{name}: {requests} requests over {corpus_size} patterns"
            )
        workloads[name] = run_service_cell(
            nprocs=nprocs,
            corpus_size=corpus_size,
            requests=requests,
            skew=skew,
            arrival=arrival,
            algorithm=algorithm,
            drift=drift,
            workers=workers,
            seed=seed,
            progress=progress,
            guard=guard,
            deadline=deadline,
        )
    return {"schema": SERVICE_SCHEMA, "scale": scale, "workloads": workloads}


def write_service_bench(
    bench: Dict[str, object],
    path=None,
    root=None,
    force: bool = False,
):
    """Persist one service BENCH document to its scale-appropriate path.

    Quick and custom runs land in ``BENCH_service_quick.json`` so a CI
    smoke run can never clobber the committed full-scale artifact; a
    full run replaces ``BENCH_service.json``.  Passing ``path``
    overrides the routing, but overwriting an existing full-scale
    artifact with a non-full document still refuses unless ``force``
    (the exact accident the side path exists to prevent).  Returns the
    path written.
    """
    scale = bench.get("scale")
    if path is None:
        name = (
            "BENCH_service.json"
            if scale == "full"
            else "BENCH_service_quick.json"
        )
        path = Path(root or ".") / name
    path = Path(path)
    if path.exists() and scale != "full" and not force:
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and existing.get("scale") == "full":
            raise ValueError(
                f"refusing to overwrite the full-scale artifact {path} "
                f"with a {scale!r} run; use --force to override"
            )
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return path


def render_service_bench(bench: Dict[str, object]) -> str:
    """Fixed-width report, one line per workload."""
    lines = [
        f"{'workload':<28} {'req/s':>8} {'speedup':>8} {'hit':>6} "
        f"{'warm':>6} {'p50 ms':>8} {'p99 ms':>8}  lint"
    ]
    for name, wl in bench["workloads"].items():  # type: ignore[union-attr]
        lines.append(
            f"{name:<28} {wl['schedules_per_sec']:>8.0f} "
            f"{wl['speedup']:>7.1f}x {wl['hit_rate']:>6.1%} "
            f"{wl['warm_hit_rate']:>6.1%} {wl['p50_ms']:>8.3f} "
            f"{wl['p99_ms']:>8.3f}  "
            + ("ok" if not wl["lint_failures"] else f"{wl['lint_failures']} FAIL")
        )
    return "\n".join(lines)
