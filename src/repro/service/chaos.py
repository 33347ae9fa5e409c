"""Service-tier chaos campaign: seeded faults vs. the guarded scheduler.

The resilience layer's chaos harness (:mod:`repro.resilience.chaos`)
attacks the *executor*; this one attacks the *service*.  Each seeded
run builds a small scheduler under a :class:`~repro.service.guard.GuardConfig`,
drives a burst of concurrent requests through it while injecting faults
through the guard's chaos port — worker kills, slow builds, transient
build failures — plus disk-store corruption and admission-sized
overload, and then checks invariants that must hold under *any* fault
mix:

* **termination** — every request resolves with a response or a
  structured :class:`~repro.service.guard.ServiceError`; no waiter
  deadlocks, no bare exceptions;
* **served = built** — every successful response validates against its
  pattern and is byte-identical to a direct cold build (the campaign
  schedulers run with ``canonicalize=False`` and ``warm_edit_limit=0``,
  so no tier is allowed to drift the bytes);
* **counter reconciliation** — the scheduler's ``service.guard.*``
  counters reconcile *exactly* against per-request traces and observed
  outcomes: shed and deadline outcome counts, retry and backoff
  totals, worker-crash and inline-failover totals, chaos injections,
  and the breaker's trip/probe lifetime counts (with the soundness
  bound ``crashes >= threshold + trips - 1``);
* **quarantine accounting** — corrupted or forged store files are
  quarantined (never served, never silently dropped) and the
  :attr:`~repro.service.store.ScheduleStore.quarantined` count matches
  the number of files the scenario mangled, while torn ``.tmp`` writes
  stay invisible.

Everything is derived from the seed (``repro serve-chaos --seed-base
K`` replays a campaign); a failing seed is a standalone repro.  Results
land in ``results/service_chaos.{txt,json}`` plus a merged
``repro-metrics/1`` snapshot in ``results/service_chaos_metrics.json``
for ``repro metrics --check``.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import merge_state, metrics_to_json, registry_state
from ..schedules.pattern import CommPattern
from ..schedules.validate import validate_schedule
from .guard import GuardConfig, ServiceError, SHED_POLICIES
from .scheduler import Scheduler, _build_serialized
from .store import ScheduleStore

__all__ = [
    "SERVICE_CHAOS_SCHEMA",
    "ServiceChaosRun",
    "ServiceChaosReport",
    "run_service_campaign",
    "render_service_chaos",
    "write_service_chaos",
]

SERVICE_CHAOS_SCHEMA = "repro-service-chaos/1"

#: Salt mixed into every scenario seed so the service chaos stream is
#: independent of the resilience campaign's.
_SALT = 0x5E5C4A05

#: Scenario kinds, rotated by seed so every campaign covers all of them.
_KINDS = (
    "worker_kill",
    "slow_build",
    "transient",
    "burst_overload",
    "deadline",
    "disk_corruption",
    "mixed",
)

#: Runs in a full campaign (>= 100 per the acceptance bar) / quick CI.
_FULL_RUNS = 105
_QUICK_RUNS = 14

#: Per-thread join timeout; a thread still alive after this is a
#: deadlocked waiter, which is exactly what the campaign must catch.
_JOIN_TIMEOUT = 60.0


@dataclass(frozen=True)
class ServiceChaosRun:
    """One seeded scenario and its invariant verdicts."""

    seed: int
    kind: str
    nprocs: int
    workers: int
    requests: int
    responses: int
    #: Structured error class -> count (DeadlineExceeded, ...).
    errors: Dict[str, int]
    #: Chaos action -> times the hook injected it.
    injected: Dict[str, int]
    #: Store files quarantined at load (disk-corruption scenarios).
    quarantined: int
    breaker_trips: int
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ServiceChaosReport:
    """A full campaign's runs plus the merged service registry."""

    runs: List[ServiceChaosRun] = field(default_factory=list)
    #: Every scenario scheduler's metrics merged (for the exposition
    #: artifact; names are all frozen ``service.*`` names).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def total(self) -> int:
        return len(self.runs)

    @property
    def violations(self) -> List[ServiceChaosRun]:
        return [r for r in self.runs if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SERVICE_CHAOS_SCHEMA,
            "total": self.total,
            "violations": len(self.violations),
            "runs": [
                {
                    "seed": r.seed,
                    "kind": r.kind,
                    "nprocs": r.nprocs,
                    "workers": r.workers,
                    "requests": r.requests,
                    "responses": r.responses,
                    "errors": dict(sorted(r.errors.items())),
                    "injected": dict(sorted(r.injected.items())),
                    "quarantined": r.quarantined,
                    "breaker_trips": r.breaker_trips,
                    "violations": list(r.violations),
                }
                for r in self.runs
            ],
        }

    def metrics_doc(self) -> Dict[str, object]:
        """Merged registry as a ``repro-metrics/1`` document."""
        return metrics_to_json(
            self.metrics,
            meta={"source": "serve-chaos", "runs": self.total},
        )


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------
@dataclass
class _Scenario:
    """Everything one run needs, drawn deterministically from its seed."""

    seed: int
    kind: str
    nprocs: int
    workers: int
    threads: int
    requests: List[Tuple[CommPattern, str]]
    guard: GuardConfig
    deadline: Optional[float]
    kill_p: float
    slow_p: float
    slow_seconds: float
    transient_p: float
    corrupt: int


_ALGORITHMS = ("greedy", "balanced")


def _make_scenario(seed: int) -> _Scenario:
    rng = random.Random(_SALT ^ (seed * 0x9E3779B1))
    kind = _KINDS[seed % len(_KINDS)]
    nprocs = rng.choice((8, 16))
    corpus = [
        CommPattern.synthetic(nprocs, 0.4, 512, seed=rng.randrange(64))
        for _ in range(rng.randint(2, 4))
    ]
    n_requests = rng.randint(6, 12)
    requests = [
        (rng.choice(corpus), rng.choice(_ALGORITHMS))
        for _ in range(n_requests)
    ]

    workers = 1 if kind in ("worker_kill", "mixed") else 0
    threads = rng.randint(4, 6) if kind in ("burst_overload", "mixed") else rng.randint(1, 3)
    kill_p = {"worker_kill": 0.5, "mixed": 0.25}.get(kind, 0.0)
    slow_p = {
        "slow_build": 0.6,
        "burst_overload": 0.7,
        "deadline": 0.6,
        "mixed": 0.3,
    }.get(kind, 0.0)
    slow_seconds = 0.05 if kind == "deadline" else rng.uniform(0.002, 0.01)
    transient_p = {"transient": 0.5, "mixed": 0.2}.get(kind, 0.0)
    deadline = 0.02 if kind == "deadline" else (
        rng.uniform(0.5, 1.0) if kind == "mixed" else None
    )
    corrupt = rng.randint(1, 3) if kind == "disk_corruption" else 0

    admission = kind in ("burst_overload", "deadline", "mixed")
    guard = GuardConfig(
        deadline=None,  # per-request deadline= is what the driver passes
        max_retries=rng.randint(1, 2),
        backoff_base=0.001,
        backoff_factor=2.0,
        backoff_cap=0.004,
        backoff_jitter=0.1,
        seed=seed,
        breaker_threshold=2,
        breaker_cooldown=0.05,
        admission_capacity=rng.randint(1, 2) if admission else None,
        admission_queue=rng.randint(0, 2),
        shed_policy=rng.choice(SHED_POLICIES),
    )
    return _Scenario(
        seed=seed,
        kind=kind,
        nprocs=nprocs,
        workers=workers,
        threads=threads,
        requests=requests,
        guard=guard,
        deadline=deadline,
        kill_p=kill_p,
        slow_p=slow_p,
        slow_seconds=slow_seconds,
        transient_p=transient_p,
        corrupt=corrupt,
    )


def _corrupt_store_dir(path: Path, count: int, rng: random.Random) -> int:
    """Mangle ``count`` entry files three different ways; return actual.

    Also plants a torn ``.tmp`` partial write, which must stay invisible
    (it matches no loader glob) — that one is *not* counted.
    """
    files = sorted(path.glob("*.json"))
    mangled = 0
    for p in files[:count]:
        mode = rng.choice(("truncate", "garbage", "forge"))
        if mode == "truncate":
            text = p.read_text()
            p.write_text(text[: max(1, len(text) // 3)])
        elif mode == "garbage":
            p.write_text("{not json at all")
        else:
            # Forged name: valid content filed under the wrong digest.
            # Unique per file — two forges in one run must not collide
            # and silently overwrite each other.
            forged = f"{mangled:02x}" + "f" * max(1, len(p.stem) - 2)
            p.rename(path / f"{forged}.json")
        mangled += 1
    (path / ".deadbeef-torn.tmp").write_text('{"format": "repro-sched')
    return mangled


# ----------------------------------------------------------------------
# One scenario run
# ----------------------------------------------------------------------
def _reconcile(
    sched: Scheduler,
    scenario: _Scenario,
    n_outcomes: int,
    traces: List[object],
    errors: List[ServiceError],
    injected: Dict[str, int],
) -> List[str]:
    """Exact counter-vs-outcome reconciliation (the tentpole invariant)."""
    violations: List[str] = []
    stats = sched.stats()

    def check(name: str, expected: int, label: str) -> None:
        got = stats.get(name, 0)
        if got != expected:
            violations.append(
                f"reconcile: {name} counter is {got} but {label} is "
                f"{expected}"
            )

    err_counts = Counter(type(e).__name__ for e in errors)

    check("service.requests", n_outcomes, "request outcomes")
    check(
        "service.guard.shed",
        err_counts.get("ServiceOverloaded", 0),
        "ServiceOverloaded outcomes",
    )
    check(
        "service.guard.deadline_exceeded",
        err_counts.get("DeadlineExceeded", 0),
        "DeadlineExceeded outcomes",
    )
    check(
        "service.guard.retries",
        sum(t.retries for t in traces),
        "sum of trace retries",
    )
    check(
        "service.guard.worker_crashes",
        sum(t.worker_crashes for t in traces),
        "sum of trace worker crashes",
    )
    check(
        "service.guard.inline_failovers",
        sum(1 for t in traces if t.inline_failover),
        "traces marked inline_failover",
    )
    check(
        "service.guard.chaos_injections",
        sum(injected.values()),
        "hook injections",
    )

    breaker = sched._breaker
    check("service.guard.breaker_trips", breaker.trips, "breaker trips")
    check("service.guard.breaker_probes", breaker.probes, "breaker probes")
    crashes = stats.get("service.guard.worker_crashes", 0)
    threshold = scenario.guard.breaker_threshold
    if breaker.trips and crashes < threshold + breaker.trips - 1:
        violations.append(
            f"reconcile: {breaker.trips} trip(s) need at least "
            f"{threshold + breaker.trips - 1} crashes, saw {crashes}"
        )
    return violations


def _run_scenario(seed: int, registry: MetricsRegistry) -> ServiceChaosRun:
    scenario = _make_scenario(seed)
    rng = random.Random(f"{_SALT}:{seed}:inject")
    injected: Dict[str, int] = {}
    hook_lock = threading.Lock()

    def chaos_hook(stage: str, attempt: int):
        with hook_lock:
            roll = rng.random()
            if roll < scenario.kill_p:
                injected["kill_worker"] = injected.get("kill_worker", 0) + 1
                return ("kill_worker", 0.0)
            if roll < scenario.kill_p + scenario.slow_p:
                injected["slow_build"] = injected.get("slow_build", 0) + 1
                return ("slow_build", scenario.slow_seconds)
            if roll < (
                scenario.kill_p + scenario.slow_p + scenario.transient_p
            ):
                injected["fail_transient"] = (
                    injected.get("fail_transient", 0) + 1
                )
                return ("fail_transient", 0.0)
        return None

    scenario.guard.chaos_hook = chaos_hook

    violations: List[str] = []
    outcomes: List[Tuple[str, object]] = []
    out_lock = threading.Lock()
    quarantined = 0
    trips = 0

    with tempfile.TemporaryDirectory(prefix="serve-chaos-") as tdir:
        store_path = Path(tdir) / "store"
        if scenario.corrupt:
            # Pre-populate a disk store, mangle files, and reload: the
            # mangled entries must be quarantined, the torn .tmp must
            # stay invisible, and the campaign scheduler below must
            # serve correct bytes by rebuilding the lost entries cold.
            with Scheduler(
                store=ScheduleStore(store_path),
                canonicalize=False,
                warm_edit_limit=0,
            ) as seeder:
                for pat, alg in {
                    (p, a): None for p, a in scenario.requests
                }:
                    seeder.request(pat, alg)
            crng = random.Random(f"{_SALT}:{seed}:corrupt")
            mangled = _corrupt_store_dir(store_path, scenario.corrupt, crng)
            store = ScheduleStore(store_path)
            quarantined = store.quarantined
            if quarantined != mangled:
                violations.append(
                    f"quarantine: mangled {mangled} file(s) but store "
                    f"quarantined {quarantined}"
                )
            qdir = store_path / "corrupt"
            moved = len(list(qdir.iterdir())) if qdir.is_dir() else 0
            if moved != mangled:
                violations.append(
                    f"quarantine: {moved} file(s) in corrupt/ for "
                    f"{mangled} mangled"
                )
            if list(store_path.glob("*.tmp")):
                # The torn partial write survives on disk by design —
                # but it must never have been loaded as an entry.  Its
                # digest is not a real key, so loading it would have
                # quarantined it; reaching here with matching counts
                # proves it was simply never seen.
                pass
        else:
            store = ScheduleStore()

        # Every serving shortcut that could alter bytes is off: any
        # response must be byte-identical to a direct cold build.
        sched = Scheduler(
            store=store,
            workers=scenario.workers,
            canonicalize=False,
            warm_edit_limit=0,
            guard=scenario.guard,
        )
        try:
            shares: List[List[Tuple[CommPattern, str]]] = [
                [] for _ in range(scenario.threads)
            ]
            for i, item in enumerate(scenario.requests):
                shares[i % scenario.threads].append(item)

            def drive(items: List[Tuple[CommPattern, str]]) -> None:
                for pat, alg in items:
                    try:
                        resp = sched.request(
                            pat, alg, deadline=scenario.deadline
                        )
                        with out_lock:
                            outcomes.append(("response", (pat, alg, resp)))
                    except ServiceError as exc:
                        with out_lock:
                            outcomes.append(("error", exc))
                    except BaseException as exc:  # noqa: BLE001
                        with out_lock:
                            outcomes.append(("unstructured", exc))

            workers = [
                threading.Thread(target=drive, args=(share,), daemon=True)
                for share in shares
                if share
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=_JOIN_TIMEOUT)
            hung = [t for t in workers if t.is_alive()]
            if hung:
                violations.append(
                    f"deadlock: {len(hung)} driver thread(s) still "
                    f"waiting after {_JOIN_TIMEOUT:.0f}s"
                )

            responses = [o for m, o in outcomes if m == "response"]
            errors = [o for m, o in outcomes if m == "error"]
            unstructured = [o for m, o in outcomes if m == "unstructured"]
            if unstructured:
                violations.append(
                    "termination: unstructured "
                    + ", ".join(
                        f"{type(e).__name__}: {e}" for e in unstructured[:3]
                    )
                )
            if not hung and len(outcomes) != len(scenario.requests):
                violations.append(
                    f"termination: {len(scenario.requests)} requests but "
                    f"{len(outcomes)} outcomes"
                )
            for exc in errors:
                if exc.trace is None:
                    violations.append(
                        f"structure: {type(exc).__name__} escaped without "
                        "a trace"
                    )

            # Served schedules must lint clean and equal a direct cold
            # build of the same (pattern, algorithm) byte for byte — no
            # tier may drift them.
            expected: Dict[Tuple[bytes, str], str] = {}
            for pat, alg, resp in responses:
                ident = (pat.matrix.tobytes(), alg)
                if ident not in expected:
                    expected[ident] = _build_serialized(
                        pat.matrix.tolist(), alg, {}
                    )
                if resp.serialized != expected[ident]:
                    violations.append(
                        f"bytes: {alg} response for seed pattern drifted "
                        "from its cold build"
                    )
                try:
                    validate_schedule(resp.schedule, pat)
                except Exception as exc:  # noqa: BLE001
                    violations.append(
                        f"lint: served {alg} schedule failed validation: "
                        f"{exc}"
                    )

            if not hung and not unstructured:
                traces = [resp.trace for _, _, resp in responses] + [
                    e.trace for e in errors if e.trace is not None
                ]
                violations.extend(
                    _reconcile(
                        sched,
                        scenario,
                        len(outcomes),
                        traces,
                        errors,
                        injected,
                    )
                )
            trips = sched._breaker.trips
            merge_state(registry, registry_state(sched.metrics))
        finally:
            sched.close()

    errors_by_type = Counter(
        type(o).__name__ for m, o in outcomes if m == "error"
    )
    return ServiceChaosRun(
        seed=seed,
        kind=scenario.kind,
        nprocs=scenario.nprocs,
        workers=scenario.workers,
        requests=len(scenario.requests),
        responses=sum(1 for m, _ in outcomes if m == "response"),
        errors=dict(errors_by_type),
        injected=dict(injected),
        quarantined=quarantined,
        breaker_trips=trips,
        violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def run_service_campaign(
    quick: bool = False,
    runs: Optional[int] = None,
    seed_base: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> ServiceChaosReport:
    """Run the service chaos campaign sequentially.

    ``quick`` shrinks to 14 runs (two per scenario kind, CI-sized); the
    full campaign is 105.  ``runs`` overrides either count.
    ``seed_base`` offsets every scenario seed for disjoint campaigns.
    Runs are sequential by design: each scenario already drives its own
    thread burst (and possibly a subprocess pool), and nesting that
    under another process fan-out would blur the per-run registries the
    reconciliation invariant depends on.
    """
    n = runs if runs is not None else (_QUICK_RUNS if quick else _FULL_RUNS)
    if n < 1:
        raise ValueError(f"runs must be >= 1, got {n}")
    report = ServiceChaosReport()
    for seed in range(seed_base, seed_base + n):
        run = _run_scenario(seed, report.metrics)
        report.runs.append(run)
        if progress is not None:
            mark = "ok" if run.ok else "VIOLATION"
            progress(
                f"seed {run.seed:4d} {run.kind:<14s} N={run.nprocs:<3d} "
                f"req={run.requests:<3d} {mark}"
            )
    return report


def render_service_chaos(report: ServiceChaosReport) -> str:
    """Human-readable campaign summary."""
    lines = [
        "Service chaos campaign — seeded faults vs. the guarded scheduler",
        f"runs: {report.total}   violations: {len(report.violations)}",
        "",
        f"{'seed':>5} {'kind':<14} {'N':>3} {'req':>4} {'resp':>5} "
        f"{'errors':<28} {'inj':>4} {'quar':>4} {'trip':>4}",
    ]
    for r in report.runs:
        err = (
            ",".join(f"{k}:{v}" for k, v in sorted(r.errors.items()))
            or "-"
        )
        lines.append(
            f"{r.seed:>5} {r.kind:<14} {r.nprocs:>3} {r.requests:>4} "
            f"{r.responses:>5} {err:<28} {sum(r.injected.values()):>4} "
            f"{r.quarantined:>4} {r.breaker_trips:>4}"
        )
        for v in r.violations:
            lines.append(f"      !! {v}")
    lines.append("")
    if report.ok:
        lines.append(
            "all invariants held: termination, structured errors, "
            "byte-identical serving, counter reconciliation, quarantine "
            "accounting"
        )
    else:
        lines.append(f"{len(report.violations)} run(s) violated invariants")
    return "\n".join(lines)


def write_service_chaos(
    report: ServiceChaosReport, outdir: str
) -> Tuple[str, str, str]:
    """Write ``service_chaos.{txt,json}`` + the merged metrics snapshot."""
    os.makedirs(outdir, exist_ok=True)
    txt = os.path.join(outdir, "service_chaos.txt")
    with open(txt, "w") as f:
        f.write(render_service_chaos(report) + "\n")
    js = os.path.join(outdir, "service_chaos.json")
    with open(js, "w") as f:
        json.dump(report.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    mx = os.path.join(outdir, "service_chaos_metrics.json")
    with open(mx, "w") as f:
        json.dump(report.metrics_doc(), f, indent=2, sort_keys=True)
        f.write("\n")
    return txt, js, mx
