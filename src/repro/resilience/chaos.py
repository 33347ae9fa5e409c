"""Chaos campaign: sweep seeded random fault plans, check invariants.

A robustness layer is only as trustworthy as the fault space it has
been exercised against.  :func:`run_campaign` generates hundreds of
seeded random :class:`~repro.faults.FaultPlan`\\ s (stragglers,
link degrades, message delays, message drops, node failures — alone and
in combination), runs each through :func:`~repro.resilience.adaptive_execute`
across machine sizes and scheduling algorithms, and checks four
invariants on every run:

* **termination** — the run completes; no deadlock, no unhandled
  exception, even when ranks die mid-schedule;
* **byte conservation among survivors** — the delivery manifest has no
  ``pending`` entries, its delivered bytes match the trace's exact
  delivered-bytes counter, and every pattern byte is accounted as
  delivered / dead_src / dead_dst / lost;
* **bounded makespan** — the faulted makespan stays below the healthy
  makespan scaled by a plan-derived stretch plus generous per-fault
  slack (loose enough to never false-positive, tight enough to catch a
  run that limps instead of adapting);
* **byte-identical replay** — re-running the same seed reproduces the
  engine's event stream, the manifest, and the makespan exactly.

Everything is derived from the seed: ``repro chaos --fault-seed K`` is
fully reproducible, and a failing seed is a standalone repro.  Results land in
``results/chaos.{txt,json}`` (schema ``repro-chaos/1``).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..campaign import CampaignReport, render_report, run_specs, write_artifacts
from ..faults.plan import (
    FaultPlan,
    LinkDegrade,
    MessageDelay,
    MessageDrop,
    NodeFailure,
    NodeStraggler,
)
from ..machine.params import MachineConfig
from ..schedules.irregular import schedule_irregular
from ..schedules.pattern import CommPattern
from ..schedules.schedule import Schedule
from .adaptive import AdaptiveResult, adaptive_execute

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosRun",
    "random_plan",
    "probe_plan",
    "run_campaign",
    "render_chaos",
    "write_chaos",
]

CHAOS_SCHEMA = "repro-chaos/1"

#: Salt mixed into every plan seed so chaos streams are independent of
#: the engine's own per-message randomness.
_CHAOS_SALT = 0xC4A05

#: Campaign grid.
_SIZES = (8, 16, 32)
_ALGORITHMS = ("linear", "pairwise", "balanced", "greedy")
_PLANS_PER_CELL = 17  # 3 sizes x 4 algorithms x 17 = 204 runs
_QUICK_PLANS = 5  # 1 size x 4 algorithms x 5 = 20 runs

#: Synthetic pattern used by every cell (sparse-irregular: reordering
#: has room to matter, unlike a complete exchange where every rank is
#: in every step).
_PATTERN_DENSITY = 0.4
_PATTERN_NBYTES = 4096
_PATTERN_SEED = 7


def random_plan(seed: int, nprocs: int) -> FaultPlan:
    """Deterministic random fault plan for one chaos run.

    One to three faults drawn from all five kinds.  Node failures get an
    absolute injection time inside the run's natural span (a late kill
    lands after DONE and is a no-op — also worth exercising).
    """
    rng = np.random.default_rng((_CHAOS_SALT, seed))
    levels = MachineConfig(nprocs).levels
    faults: list = []
    for _ in range(int(rng.integers(1, 4))):
        roll = float(rng.random())
        if roll < 0.25:
            faults.append(
                NodeFailure(
                    rank=int(rng.integers(nprocs)),
                    at=float(rng.uniform(0.2e-3, 4e-3)),
                )
            )
        elif roll < 0.50:
            faults.append(
                NodeStraggler(
                    rank=int(rng.integers(nprocs)),
                    factor=float(rng.uniform(2.0, 10.0)),
                    overhead_factor=float(rng.uniform(1.0, 4.0)),
                )
            )
        elif roll < 0.70:
            level = int(rng.integers(1, levels + 1))
            nlinks = nprocs if level == 1 else -(-nprocs // 4 ** (level - 1))
            faults.append(
                LinkDegrade(
                    level=level,
                    index=int(rng.integers(nlinks)),
                    factor=float(rng.uniform(0.2, 1.0)),
                    direction=str(rng.choice(("both", "up", "down"))),
                )
            )
        elif roll < 0.85:
            faults.append(
                MessageDelay(
                    probability=float(rng.uniform(0.05, 0.3)),
                    seconds=float(rng.uniform(50e-6, 500e-6)),
                )
            )
        else:
            faults.append(
                MessageDrop(
                    probability=float(rng.uniform(0.02, 0.1)),
                    max_consecutive=int(rng.integers(1, 4)),
                )
            )
    return FaultPlan(faults=tuple(faults), seed=seed)


@dataclass(frozen=True)
class ChaosRun:
    """One seeded run and its invariant verdicts."""

    seed: int
    nprocs: int
    algorithm: str
    plan: str
    makespan: float
    healthy: float
    bound: float
    digest: str
    bytes: Dict[str, int]
    failed_ranks: Tuple[int, ...]
    violations: Tuple[str, ...] = ()


def _digest(result: AdaptiveResult) -> str:
    """Replay fingerprint: engine events + manifest + exact makespan."""
    h = hashlib.sha256()
    h.update(result.sim.trace.event_stream().encode())
    h.update(json.dumps(result.manifest.to_dict(), sort_keys=True).encode())
    h.update(repr(result.time).encode())
    return h.hexdigest()


def _makespan_bound(
    plan: FaultPlan, healthy: float, message_count: int
) -> float:
    """Never-false-positive ceiling on the faulted makespan.

    ``healthy * stretch * 3`` absorbs the structural faults (a straggler
    or degraded link can at worst stretch the serial chain by its
    factor; 3x covers scheduling interaction), plus generous additive
    slack per message-level fault and per node failure (each pending op
    against a dead rank resolves one detect-timeout later).
    """
    stretch = 1.0
    for f in plan.stragglers:
        stretch = max(stretch, f.factor * f.overhead_factor)
    for f in plan.link_degrades:
        stretch = max(stretch, 1.0 / f.factor)
    bound = healthy * stretch * 3.0
    for f in plan.delays:
        bound += f.seconds * message_count
    for f in plan.drops:
        # <= max_consecutive forced retries per message, each costing a
        # detect timeout plus exponential backoff (~0.7 ms for three).
        bound += message_count * f.max_consecutive * (f.detect_seconds + 1e-3)
    for f in plan.node_failures:
        bound += f.detect_seconds + 2e-3
    return bound + 5e-3


def _check_run(
    result: AdaptiveResult,
    plan: FaultPlan,
    healthy: float,
    bound: float,
    replay: Callable[[], AdaptiveResult],
) -> Tuple[str, ...]:
    """Invariant checks for one completed run (termination already held)."""
    violations: List[str] = []
    manifest = result.manifest
    if not manifest.complete:
        pending = sum(
            1 for oc in manifest.outcomes() if oc.status == "pending"
        )
        violations.append(f"manifest: {pending} transfers left pending")
    if manifest.delivered_bytes != result.sim.trace.delivered_bytes:
        violations.append(
            "byte conservation: manifest delivered "
            f"{manifest.delivered_bytes} B != trace "
            f"{result.sim.trace.delivered_bytes} B"
        )
    accounted = sum(manifest.bytes_by_status().values())
    if accounted != manifest.total_bytes:
        violations.append(
            f"accounting: {accounted} B of {manifest.total_bytes} B"
        )
    if not plan.node_failures and manifest.bytes_by_status().get("lost"):
        violations.append("bytes lost with no node failure in the plan")
    if result.time > bound:
        violations.append(
            f"makespan {result.time * 1e3:.3f} ms exceeds bound "
            f"{bound * 1e3:.3f} ms (healthy {healthy * 1e3:.3f} ms)"
        )
    second = replay()
    if _digest(second) != _digest(result):
        violations.append("replay: event stream diverged for same seed")
    return tuple(violations)


@functools.lru_cache(maxsize=None)
def _cell(nprocs: int, algorithm: str) -> Tuple[Schedule, MachineConfig]:
    """Per-process cell cache so parallel workers build each cell once."""
    pattern = CommPattern.synthetic(
        nprocs, _PATTERN_DENSITY, _PATTERN_NBYTES, seed=_PATTERN_SEED
    )
    return schedule_irregular(pattern, algorithm), MachineConfig(nprocs)


def _baseline(nprocs: int, algorithm: str) -> Tuple[float, int]:
    """A cell's healthy makespan and message count."""
    schedule, config = _cell(nprocs, algorithm)
    healthy = adaptive_execute(schedule, config, trace=False).time
    return healthy, schedule.n_messages


def _run_one(
    schedule: Schedule,
    config: MachineConfig,
    plan: FaultPlan,
    seed: int,
    algorithm: str,
    healthy: float,
    message_count: int,
) -> ChaosRun:
    """Execute one (schedule, plan) cell and check every invariant."""
    bound = _makespan_bound(plan, healthy, message_count)

    def _go() -> AdaptiveResult:
        return adaptive_execute(
            schedule, config, faults=plan, seed=seed, trace=True
        )

    try:
        result = _go()
        outcome = dict(
            violations=_check_run(result, plan, healthy, bound, _go),
            makespan=result.time,
            digest=_digest(result),
            bytes=result.manifest.bytes_by_status(),
            failed_ranks=tuple(result.sim.failed_ranks),
        )
    except Exception as exc:  # termination invariant
        outcome = dict(
            violations=(f"termination: {type(exc).__name__}: {exc}",),
            makespan=float("nan"),
            digest="",
            bytes={},
            failed_ranks=(),
        )
    return ChaosRun(
        seed=seed,
        nprocs=config.nprocs,
        algorithm=algorithm,
        plan=plan.describe(),
        healthy=healthy,
        bound=bound,
        **outcome,
    )


def probe_plan(
    plan: FaultPlan, nprocs: int = 16, algorithm: str = "greedy"
) -> ChaosRun:
    """Run one user-supplied plan through the full invariant battery."""
    schedule, config = _cell(nprocs, algorithm)
    return _run_one(
        schedule, config, plan, plan.seed, algorithm, *_baseline(nprocs, algorithm)
    )


def _campaign_run(
    spec: Tuple[int, int, str, float, int]
) -> ChaosRun:
    """Execute one fully-specified campaign run (worker-pool entry point).

    The spec carries everything the run depends on — seed, cell, and the
    parent-measured healthy baseline — so a forked or spawned worker
    produces the byte-identical :class:`ChaosRun` the sequential path
    would.
    """
    seed, nprocs, algorithm, healthy, message_count = spec
    schedule, config = _cell(nprocs, algorithm)
    plan = random_plan(seed, nprocs)
    return _run_one(
        schedule, config, plan, seed, algorithm, healthy, message_count
    )


def run_campaign(
    quick: bool = False,
    seed_base: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 0,
) -> CampaignReport:
    """Run the chaos grid and return every run's verdicts.

    ``quick`` shrinks the grid to one machine size and 5 plans per
    algorithm (20 runs, CI-sized); the full campaign is 204 runs.
    ``seed_base`` offsets every plan seed, giving disjoint campaigns.
    ``jobs`` fans runs out over a process pool; every run is fully
    specified by its spec, so the report — ordering, digests,
    violations — is identical at any job count.
    """
    sizes = (16,) if quick else _SIZES
    plans_per_cell = _QUICK_PLANS if quick else _PLANS_PER_CELL
    specs: List[Tuple[int, int, str, float, int]] = []
    seed = seed_base
    for nprocs in sizes:
        for algorithm in _ALGORITHMS:
            cell = (nprocs, algorithm, *_baseline(nprocs, algorithm))
            for _ in range(plans_per_cell):
                specs.append((seed, *cell))
                seed += 1
    return run_specs(
        CHAOS_SCHEMA,
        _campaign_run,
        specs,
        lambda r: f"seed {r.seed:4d} N={r.nprocs:<3d} {r.algorithm:<9s}",
        progress,
        jobs,
    )


def _row(r: ChaosRun) -> str:
    ms = "failed" if r.makespan != r.makespan else f"{r.makespan*1e3:.3f} ms"
    return (
        f"{r.seed:>5} {r.nprocs:>3} {r.algorithm:<9} {ms:>12} "
        f"{r.healthy*1e3:>9.3f} ms {r.bound*1e3:>9.3f} ms  {r.plan}"
    )


def render_chaos(report: CampaignReport) -> str:
    """Human-readable campaign summary."""
    return render_report(
        report,
        "Chaos campaign — seeded random fault plans vs. adaptive executor",
        f"{'seed':>5} {'N':>3} {'algorithm':<9} {'makespan':>12} "
        f"{'healthy':>12} {'bound':>12}  plan",
        _row,
        "termination, byte conservation, bounded makespan, "
        "byte-identical replay",
    )


def write_chaos(report: CampaignReport, outdir) -> Tuple[Path, Path]:
    """Write ``chaos.txt`` and ``chaos.json`` under ``outdir``."""
    return write_artifacts(outdir, "chaos", render_chaos(report), report.to_dict())
