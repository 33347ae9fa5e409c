"""serve_n32: the scheduling service under a Zipf stream of N=32 requests.

One op is one ``Scheduler.request`` (``workers=0``, no guard, so every
build runs inline in this process).  The stream is Zipf(1.1) over a
fixed corpus of 64 Table 11-style patterns.  Setup pre-warms the store
with a cold build of each corpus pattern, and serves one drifted variant
of each (``repro.service.drift_variant``) once, so the warm memo holds
them.

Traffic mix.  The hit, warm and cold shares are the ones measured by the
service bench committed with the repository (``BENCH_service.json``,
cell ``zipf_n16_s1.1_poisson``: 21,304 hits, 2,632 warm serves and 64
cold builds in 24,000 requests, i.e. 88.8% / 11.0% / 0.27%).  In that
stream each corpus pattern has one fixed drifted variant, so a warm
serve is nearly always a read of the warm memo; only the first serve of
a variant adapts a schedule (64 of 2,632).  Relabeled copies are added
at 1% of requests.  Each cycle of 1,600 requests holds:

* 1,406 exact repeats of corpus patterns -> ``hit`` (88.8% of the
  non-relabeled requests);
* 170 repeats of the setup's drifted variants -> ``warm``, read from
  the warm memo;
* 4 never-seen drifted variants -> ``warm``, adapted from the corpus
  entry and linted; with the repeats, warm is 11.0%;
* 16 rank-relabeled copies of corpus patterns under a fresh permutation
  -> ``isomorphic`` (canonical-key hit, relabel, lint): 1.0%;
* 4 never-seen patterns -> ``cold`` (build, lint, store write): 0.25%,
  so cold builds trickle in for the whole run, not only at start-up.

Relabeled share, and why: the isomorphic tier served none of the
measured requests, and ROADMAP item 3(c) must decide whether to keep it
on measured traffic.  1% gives it over a thousand timed requests per
run.  Each is a first serve that costs about as much as a cold build,
so at 1% this tier takes about half of the loop's CPU time.

Every cycle does the same work.  Hits and memo reads have fixed counts
per pattern in each cycle: the Zipf(1.1) weights over fixed popularity
ranks, rounded by largest remainder.  Adapts, relabeled copies and cold
patterns come in equal numbers from each of the four Table 11 densities
in every cycle, because their cost grows with density.  The seed picks
the corpus pattern within a density (Zipf-weighted), the drifted cell,
the permutations, the cold patterns and the order of requests inside a
cycle.

Percentile placement.  Hits are 87.9% of requests, so the p90 rank lies
past the hit tier's count edge, among the memo reads of the warm tier.
Both are reads that build nothing (tens of microseconds, the memo read a
little slower than a hit), so the placement classes are ``read`` (hits
and memo reads, 98.5%) and ``build`` (adapts, relabels, cold builds,
milliseconds).  Both the p50 and the p90 rank lie deep inside ``read``.

The service never calls the simulator, so this workload is the
no-change control for engine work, and the engine workloads are its
control.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    DENSITIES,
    SIZES,
    Loop,
    clock,
    percentile,
    synthetic_matrix,
    timed_ops,
)

from repro import MachineConfig, obs
from repro.schedules import (
    IRREGULAR_ALGORITHMS,
    CommPattern,
    lint_schedule,
    schedule_from_json,
    schedule_irregular,
    schedule_to_json,
)
from repro.service import Scheduler, canonical_form, drift_variant
from repro.service import scheduler as service_scheduler

NAME = "serve_n32"
NPROCS = 32
ALGORITHM = "greedy"
CORPUS_SEEDS = 4
ZIPF_SKEW = 1.1
#: Seed of the fixed drifted variant of corpus pattern ``i``: VARIANT_SEED + i.
VARIANT_SEED = 1000
#: Requests per cycle by traffic kind.  Adapts, relabeled copies and
#: cold patterns split evenly over the four densities.
CYCLE: Dict[str, int] = {
    "hit": 1406,
    "memo": 170,
    "adapt": 4,
    "isomorphic": 16,
    "cold": 4,
}
#: The tier that must serve each kind of traffic.
TIER = {
    "hit": "hit",
    "memo": "warm",
    "adapt": "warm",
    "isomorphic": "isomorphic",
    "cold": "cold",
}
TIERS = ("hit", "warm", "isomorphic", "cold")
#: Percentile placement classes, in ascending order of latency.
CLASS_LABELS = ("read", "build")
READS = ("hit", "memo")
CYCLE_SECONDS = 0.42
SETUP_REPEATS = 2
#: Requests per timed segment: half a cycle, about a sixth of a second.
REF_EVERY = sum(CYCLE.values()) // 2

#: Scheduler.stats() counter behind each tier.
TIER_COUNTERS = {
    "hit": "service.hits",
    "warm": "service.warm_hits",
    "isomorphic": "service.iso_hits",
    "cold": "service.cold_builds",
}


@dataclass
class State:
    scheduler: Scheduler
    config: MachineConfig
    corpus: List[CommPattern]
    variants: List[CommPattern]
    seed: int


def corpus_matrices() -> List[np.ndarray]:
    out = []
    for g in range(CORPUS_SEEDS):
        for di, density in enumerate(DENSITIES):
            for si, nbytes in enumerate(SIZES):
                rng = np.random.default_rng([7, g, di, si])
                out.append(synthetic_matrix(NPROCS, density, nbytes, rng))
    return out


def density_index(i: int) -> int:
    """Density of corpus pattern ``i`` (see :func:`corpus_matrices`)."""
    return (i // len(SIZES)) % len(DENSITIES)


def setup(seed: int) -> State:
    """A fresh service whose store holds a cold build of every corpus
    pattern and whose warm memo holds every drifted variant.  The
    canonical-form memo is process-wide, so it is cleared first to make
    every repeat do the same work."""
    canonical_form.cache_clear()
    config = MachineConfig(NPROCS)
    scheduler = Scheduler(workers=0)
    corpus = [CommPattern(m) for m in corpus_matrices()]
    variants = [drift_variant(p, VARIANT_SEED + i) for i, p in enumerate(corpus)]
    for tier, patterns in (("cold", corpus), ("warm", variants)):
        for pattern in patterns:
            response = scheduler.request(pattern, ALGORITHM, config)
            if response.source != tier or not response.key.canonical:
                raise RuntimeError(
                    f"setup pattern served {response.source!r}, not {tier!r} "
                    f"(canonical={response.key.canonical})"
                )
    return State(
        scheduler=scheduler,
        config=config,
        corpus=corpus,
        variants=variants,
        seed=seed,
    )


def tier_counts(cycles: int) -> Dict[str, int]:
    counts = dict.fromkeys(TIERS, 0)
    for kind, n in CYCLE.items():
        counts[TIER[kind]] += n * cycles
    return counts


def zipf_weights(n: int) -> np.ndarray:
    """Zipf(1.1) weight of each corpus pattern under fixed popularity
    ranks, so every seed has the same hot set."""
    weights = np.empty(n)
    ranks = np.random.default_rng(NPROCS).permutation(n)
    weights[ranks] = 1.0 / np.arange(1, n + 1) ** ZIPF_SKEW
    return weights / weights.sum()


def apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` over ``weights`` by largest remainder."""
    share = total * weights
    counts = np.floor(share).astype(int)
    rest = total - int(counts.sum())
    counts[np.argsort(counts - share, kind="stable")[:rest]] += 1
    return counts


def stream(
    seed: int, cycles: int, corpus: List[CommPattern], variants: List[CommPattern]
) -> List[Tuple[str, CommPattern]]:
    """The seeded request stream as (kind of traffic, pattern)."""
    n = len(corpus)
    weights = zipf_weights(n)
    repeats: List[Tuple[str, CommPattern]] = []
    for kind, patterns in (("hit", corpus), ("memo", variants)):
        for i, k in enumerate(apportion(CYCLE[kind], weights)):
            repeats += [(kind, patterns[i])] * int(k)
    strata = [
        np.array([i for i in range(n) if density_index(i) == d])
        for d in range(len(DENSITIES))
    ]
    rng = np.random.default_rng([seed, NPROCS])
    drifted: Dict[Tuple[int, int], int] = {}
    out: List[Tuple[str, CommPattern]] = []
    for _ in range(cycles):
        fresh: List[Tuple[str, CommPattern]] = []
        for d, stratum in enumerate(strata):
            p = weights[stratum] / weights[stratum].sum()
            for _ in range(CYCLE["adapt"] // len(DENSITIES)):
                idx = int(rng.choice(stratum, p=p))
                m = corpus[idx].matrix.copy()
                cells = np.flatnonzero(m)
                cell = int(cells[rng.integers(len(cells))])
                # Setup's variants double one cell; growing a cell by 3x,
                # 4x, ... keeps every adapted pattern never seen before.
                times = drifted.get((idx, cell), 0)
                drifted[(idx, cell)] = times + 1
                m.flat[cell] *= 3 + times
                fresh.append(("adapt", CommPattern(m)))
            for _ in range(CYCLE["isomorphic"] // len(DENSITIES)):
                m = corpus[int(rng.choice(stratum, p=p))].matrix
                relabeled = m
                while np.array_equal(relabeled, m):
                    perm = rng.permutation(NPROCS)
                    relabeled = m[np.ix_(perm, perm)]
                fresh.append(("isomorphic", CommPattern(relabeled)))
            for _ in range(CYCLE["cold"] // len(DENSITIES)):
                nbytes = SIZES[rng.integers(len(SIZES))]
                m = synthetic_matrix(NPROCS, DENSITIES[d], nbytes, rng)
                fresh.append(("cold", CommPattern(m)))
        cycle = repeats + fresh
        out.extend(cycle[i] for i in rng.permutation(len(cycle)))
    return out


@contextmanager
def layer_timers(loop: Loop):
    """Charge the CPU time of the service's cold builds (the greedy
    entry of the public builder registry) and of its lints (the
    scheduler's ``lint_schedule``) to the loop's ``build`` and ``lint``
    layers."""
    builder = IRREGULAR_ALGORITHMS[ALGORITHM]
    lint = service_scheduler.lint_schedule

    def timed(layer, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                loop.add_layer(layer, clock() - t0)

        return call

    IRREGULAR_ALGORITHMS[ALGORITHM] = timed("build", builder)
    service_scheduler.lint_schedule = timed("lint", lint)
    try:
        yield
    finally:
        IRREGULAR_ALGORITHMS[ALGORITHM] = builder
        service_scheduler.lint_schedule = lint


def run(state: State, cycles: int, traced: bool, expected: dict) -> Loop:
    requests = stream(state.seed, cycles, state.corpus, state.variants)
    scheduler, config = state.scheduler, state.config
    canonical_form.cache_clear()
    before = scheduler.stats()
    loop = Loop()
    loop.layer_seconds = {"build": 0.0, "lint": 0.0}
    by_tier: Dict[str, List[float]] = {tier: [] for tier in TIERS}
    adapts: List[float] = []
    #: (pattern id, served bytes) -> (pattern, tier, op indices)
    distinct: Dict[Tuple[int, str], Tuple[CommPattern, str, List[int]]] = {}
    failed = set()
    with layer_timers(loop), obs.tracing() if traced else nullcontext():
        timed = timed_ops(loop, requests, REF_EVERY)
        for i, (kind, pattern) in enumerate(timed):
            t0 = clock()
            response = scheduler.request(pattern, ALGORITHM, config)
            dt = clock() - t0
            loop.latencies.append(dt)
            loop.covered += dt
            loop.op_class.append(0 if kind in READS else 1)
            by_tier.setdefault(response.source, []).append(dt)
            if kind == "adapt":
                adapts.append(dt)
            if response.source != TIER[kind]:
                failed.add(i)
            key = (id(pattern), response.serialized)
            entry = distinct.get(key)
            if entry is None:
                distinct[key] = (pattern, response.source, [i])
            else:
                entry[2].append(i)

    # Output checks, outside the timed loop: every distinct served
    # schedule lints clean against its pattern, and what the store
    # serves (cold builds and hits) is byte-identical to a fresh build.
    for (_, serialized), (pattern, source, ops) in distinct.items():
        ok = lint_schedule(schedule_from_json(serialized), pattern).ok
        if ok and source in ("hit", "cold"):
            fresh = schedule_to_json(schedule_irregular(pattern, ALGORITHM))
            ok = fresh == serialized
        if not ok:
            failed.update(ops)
    after = scheduler.stats()
    want = tier_counts(cycles)
    served = {
        tier: after.get(name, 0) - before.get(name, 0)
        for tier, name in TIER_COUNTERS.items()
    }
    mismatch = sum(abs(served[t] - want[t]) for t in TIERS)
    loop.failed = min(len(requests), len(failed) + mismatch)

    requests_n = len(requests)
    for tier in TIERS:
        share = served[tier] / requests_n
        loop.extra[f"service.{_share_name(tier)}"] = (share, "ratio")
        loop.extra[f"service.latency_ms.{tier}.p50"] = (_p50_ms(by_tier[tier]), "ms")
    loop.extra["service.latency_ms.adapt.p50"] = (_p50_ms(adapts), "ms")
    cold_n = served["cold"]
    loop.extra["service.build_ms_per_cold"] = (
        loop.layer_seconds["build"] / cold_n * 1e3 if cold_n else 0.0,
        "ms",
    )
    loop.extra["service.lint_ms_per_request"] = (
        loop.layer_seconds["lint"] / requests_n * 1e3,
        "ms",
    )
    loop.extra["service.store.entries"] = (len(scheduler.store), "count")
    scheduler.close()
    return loop


def _p50_ms(values: List[float]) -> float:
    return percentile(values, 0.5) * 1e3 if values else 0.0


def _share_name(tier: str) -> str:
    return {"isomorphic": "iso"}.get(tier, tier) + "_share"
