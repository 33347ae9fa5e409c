"""Cross-model conformance: three cost backends, one set of claims.

The repository prices a schedule three independent ways:

* ``estimate`` — the closed-form analytic model
  (:func:`repro.schedules.estimate.estimate_schedule_time`);
* ``fluid`` — the production discrete-event executor over the max-min
  fluid network (:func:`repro.schedules.executor.execute_schedule`);
* ``packet`` — the per-packet store-and-forward validator
  (:func:`repro.sim.packets.packet_schedule_time`).

The paper's results are *shape* claims — which algorithm wins at which
message size, machine size and density — so the dangerous failure mode
is not absolute error but silent disagreement: one backend flipping an
algorithm ranking that another still reports.  This harness runs the
paper's canonical workloads (the Figure 5 sweep, Figure 6-8 scaling
points, Table 11 synthetic densities, Table 12 application patterns)
through all three backends, lints every schedule first
(:func:`repro.schedules.validate.validate_schedule`), and checks two
properties:

* **drift** — for every workload, each backend pair must agree within a
  per-pair tolerance factor (the estimator ignores cross-step
  pipelining, so its band is the widest);
* **ranking** — within a workload group, no backend pair may
  *decisively* disagree on which algorithm is faster.  Decisive means
  faster by more than ``margin``; near-ties (the paper's own PS/BS
  columns sit within 0.3 % of each other) are not rankings.

``run_conformance`` returns a report; ``write_conformance`` emits
``results/conformance.txt`` plus machine-readable
``results/conformance.json`` (schema ``repro-conformance/1``); the CLI
(``python -m repro conformance``) exits non-zero on any inversion or
drift violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.workloads import paper_workload, workload_names
from ..campaign import write_artifacts
from ..machine.params import CM5Params, MachineConfig
from ..schedules.estimate import estimate_schedule_time
from ..schedules.executor import execute_schedule
from ..schedules.irregular import (
    EXCHANGE_ALGORITHMS,
    algorithm_names,
    schedule_irregular,
)
from ..schedules.pattern import CommPattern
from ..schedules.schedule import Schedule
from ..schedules.validate import validate_schedule
from ..sim.packets import packet_schedule_time

__all__ = [
    "CONFORMANCE_SCHEMA",
    "BACKENDS",
    "DEFAULT_MARGIN",
    "DEFAULT_TOLERANCES",
    "GroupResult",
    "RankInversion",
    "DriftViolation",
    "ConformanceReport",
    "backend_times",
    "run_conformance",
    "render_conformance",
    "conformance_json",
    "write_conformance",
]

CONFORMANCE_SCHEMA = "repro-conformance/1"

#: Backend names, in report column order.
BACKENDS: Tuple[str, ...] = ("estimate", "fluid", "packet")

#: Relative gap below which two times are a tie, not a ranking.  The
#: paper's Table 11 has PS/BS columns within 0.3 % of each other;
#: anything inside this band is model noise, not a claim.
DEFAULT_MARGIN = 0.15

#: Pairwise absolute-time agreement factors.  The estimator deliberately
#: ignores cross-step pipelining (a sparse linear schedule overlaps
#: steps heavily in the DES), so its band is the widest; fluid and
#: packet simulate the same wire and sit closer together.
DEFAULT_TOLERANCES: Dict[Tuple[str, str], float] = {
    ("estimate", "fluid"): 6.0,
    ("estimate", "packet"): 6.0,
    ("fluid", "packet"): 4.0,
}

#: Message sizes for the exchange sweeps (quick keeps the Figure 5
#: crossover region, full spans the published axis).
_FIG5_SIZES_FULL = (0, 256, 512, 1024, 2048)
_FIG5_SIZES_QUICK = (256, 1024)
_TABLE11_DENSITIES_FULL = (0.10, 0.25, 0.50, 0.75)
_TABLE11_DENSITIES_QUICK = (0.10, 0.75)
_TABLE11_SEED = 42

@dataclass(frozen=True)
class RankInversion:
    """Two backends decisively disagree on an algorithm pair."""

    group: str
    backend_a: str
    backend_b: str
    #: Algorithm each backend calls decisively faster (they differ).
    faster_a: str
    faster_b: str
    #: That backend's slower/faster time ratio (> 1 + margin).
    gap_a: float
    gap_b: float

    def describe(self) -> str:
        return (
            f"{self.group}: {self.backend_a} says {self.faster_a} wins by "
            f"{self.gap_a:.2f}x, {self.backend_b} says {self.faster_b} "
            f"wins by {self.gap_b:.2f}x"
        )


@dataclass(frozen=True)
class DriftViolation:
    """One workload's times disagree beyond the pairwise tolerance."""

    group: str
    algorithm: str
    backend_a: str
    backend_b: str
    time_a: float
    time_b: float
    ratio: float  # max(a/b, b/a)
    tolerance: float

    def describe(self) -> str:
        return (
            f"{self.group}/{self.algorithm}: {self.backend_a}="
            f"{self.time_a * 1e3:.3f}ms vs {self.backend_b}="
            f"{self.time_b * 1e3:.3f}ms ({self.ratio:.2f}x > "
            f"{self.tolerance:.1f}x allowed)"
        )


@dataclass
class GroupResult:
    """One workload group: algorithms priced by every backend."""

    name: str
    nprocs: int
    #: algorithm -> backend -> seconds
    times: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def ranking(self, backend: str) -> List[str]:
        return sorted(self.times, key=lambda alg: self.times[alg][backend])


@dataclass
class ConformanceReport:
    """Full harness outcome."""

    scale: str
    margin: float
    tolerances: Dict[Tuple[str, str], float]
    groups: List[GroupResult] = field(default_factory=list)
    inversions: List[RankInversion] = field(default_factory=list)
    drifts: List[DriftViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.inversions and not self.drifts

    def max_drift(self) -> Dict[Tuple[str, str], float]:
        """Worst observed ratio per backend pair (diagnostic)."""
        worst: Dict[Tuple[str, str], float] = {
            pair: 1.0 for pair in self.tolerances
        }
        for group in self.groups:
            for times in group.times.values():
                for pair in self.tolerances:
                    a, b = times[pair[0]], times[pair[1]]
                    if a > 0 and b > 0:
                        worst[pair] = max(worst[pair], a / b, b / a)
        return worst


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
def backend_times(
    schedule: Schedule,
    config: MachineConfig,
    pattern: Optional[CommPattern] = None,
) -> Dict[str, float]:
    """Price one schedule with all three backends (after linting it)."""
    validate_schedule(schedule, pattern)
    return {
        "estimate": estimate_schedule_time(schedule, config),
        "fluid": execute_schedule(schedule, config).time,
        "packet": packet_schedule_time(schedule, config),
    }


def _check_group(
    group: GroupResult,
    margin: float,
    tolerances: Dict[Tuple[str, str], float],
    inversions: List[RankInversion],
    drifts: List[DriftViolation],
) -> None:
    algs = list(group.times)
    # Drift: every workload, every backend pair.
    for alg in algs:
        times = group.times[alg]
        for pair, tol in tolerances.items():
            a, b = times[pair[0]], times[pair[1]]
            if a <= 0 or b <= 0:
                continue
            ratio = max(a / b, b / a)
            if ratio > tol:
                drifts.append(
                    DriftViolation(
                        group.name, alg, pair[0], pair[1], a, b, ratio, tol
                    )
                )
    # Ranking: a pair of algorithms inverts when two backends each see a
    # decisive winner and the winners differ.
    for i, x in enumerate(algs):
        for y in algs[i + 1:]:
            verdicts: Dict[str, Tuple[str, float]] = {}
            for backend in BACKENDS:
                tx = group.times[x][backend]
                ty = group.times[y][backend]
                if tx * (1.0 + margin) < ty:
                    verdicts[backend] = (x, ty / tx if tx > 0 else float("inf"))
                elif ty * (1.0 + margin) < tx:
                    verdicts[backend] = (y, tx / ty if ty > 0 else float("inf"))
            names = list(verdicts)
            for i_a, a in enumerate(names):
                for b in names[i_a + 1:]:
                    if verdicts[a][0] != verdicts[b][0]:
                        inversions.append(
                            RankInversion(
                                group.name,
                                a,
                                b,
                                verdicts[a][0],
                                verdicts[b][0],
                                verdicts[a][1],
                                verdicts[b][1],
                            )
                        )


# ----------------------------------------------------------------------
# Workload grid
# ----------------------------------------------------------------------
def _conformance_groups(
    quick: bool, progress: Optional[Callable[[str], None]]
) -> List[GroupResult]:
    params = CM5Params(routing_jitter=0.0)
    groups: List[GroupResult] = []

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def add_exchange_group(name: str, nprocs: int, nbytes: int,
                           algorithms: Sequence[str]) -> None:
        cfg = MachineConfig(nprocs, params)
        pattern = CommPattern.complete_exchange(nprocs, nbytes)
        group = GroupResult(name, nprocs)
        for alg in algorithms:
            sched = EXCHANGE_ALGORITHMS[alg](nprocs, nbytes)
            group.times[alg] = backend_times(sched, cfg, pattern)
        groups.append(group)
        note(f"  {name}: {len(group.times)} algorithms priced")

    def add_pattern_group(name: str, pattern: CommPattern) -> None:
        cfg = MachineConfig(pattern.nprocs, params)
        group = GroupResult(name, pattern.nprocs)
        # The ranking contract is about *independent* models agreeing on
        # the paper's algorithms.  The local-search refiner ("local")
        # optimizes the estimate backend directly, so it sits at
        # estimate-decisive / fluid-near-tie boundaries by construction
        # — a margin-flip there is expected, not backend drift.  It is
        # cross-checked through all three backends (and against the
        # makespan lower bounds) by repro.analysis.optgap instead.
        for alg in algorithm_names():
            if alg == "local":
                continue
            sched = schedule_irregular(pattern, alg)
            group.times[alg] = backend_times(sched, cfg, pattern)
        groups.append(group)
        note(f"  {name}: {len(group.times)} algorithms priced")

    # Figure 5: complete exchange vs message size on one machine.
    fig5_n = 16 if quick else 32
    fig5_sizes = _FIG5_SIZES_QUICK if quick else _FIG5_SIZES_FULL
    note(f"Figure 5 sweep ({fig5_n} nodes)")
    for nbytes in fig5_sizes:
        add_exchange_group(
            f"fig5/n{fig5_n}/b{nbytes}",
            fig5_n,
            nbytes,
            ("linear", "pairwise", "recursive", "balanced"),
        )

    # Figures 6-8: machine-size scaling points (512 B, the Fig. 7 size).
    if not quick:
        note("Figure 6-8 scaling points")
        for nprocs in (16, 64):
            add_exchange_group(
                f"fig678/n{nprocs}/b512",
                nprocs,
                512,
                ("pairwise", "recursive", "balanced"),
            )

    # Table 11: synthetic densities on 32 nodes.
    densities = _TABLE11_DENSITIES_QUICK if quick else _TABLE11_DENSITIES_FULL
    sizes = (256,) if quick else (256, 512)
    note("Table 11 densities (32 nodes)")
    for d in densities:
        for nbytes in sizes:
            pattern = CommPattern.synthetic(
                32, d, nbytes, seed=_TABLE11_SEED
            )
            add_pattern_group(f"table11/d{int(d * 100)}/b{nbytes}", pattern)

    # Table 12: application patterns on 32 nodes.
    if not quick:
        note("Table 12 application patterns (32 nodes)")
        for wl_name in workload_names():
            wl = paper_workload(wl_name, 32)
            add_pattern_group(f"table12/{wl_name}", wl.pattern)

    return groups


def run_conformance(
    quick: bool = False,
    margin: float = DEFAULT_MARGIN,
    tolerances: Optional[Dict[Tuple[str, str], float]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ConformanceReport:
    """Run the canonical workloads through all three backends."""
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    tolerances = dict(tolerances or DEFAULT_TOLERANCES)
    for pair, tol in tolerances.items():
        if tol < 1.0:
            raise ValueError(f"tolerance for {pair} must be >= 1, got {tol}")
    report = ConformanceReport(
        scale="quick" if quick else "full",
        margin=margin,
        tolerances=tolerances,
    )
    report.groups = _conformance_groups(quick, progress)
    for group in report.groups:
        _check_group(
            group, margin, tolerances, report.inversions, report.drifts
        )
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_conformance(report: ConformanceReport) -> str:
    """Fixed-width text report (the results/conformance.txt payload)."""
    lines = [
        f"Cross-model conformance ({report.scale} scale)",
        f"backends: {', '.join(BACKENDS)}   "
        f"ranking margin: {report.margin:.0%}",
        "",
    ]
    for group in report.groups:
        lines.append(f"{group.name} ({group.nprocs} nodes, times in ms)")
        header = f"  {'algorithm':<12}" + "".join(
            f"{b:>12}" for b in BACKENDS
        )
        lines.append(header)
        for alg, times in group.times.items():
            lines.append(
                f"  {alg:<12}"
                + "".join(f"{times[b] * 1e3:12.3f}" for b in BACKENDS)
            )
        orders = {b: " < ".join(group.ranking(b)) for b in BACKENDS}
        if len(set(orders.values())) == 1:
            lines.append(f"  ranking (all backends): {orders['fluid']}")
        else:
            for b in BACKENDS:
                lines.append(f"  ranking ({b}): {orders[b]}")
        lines.append("")
    worst = report.max_drift()
    lines.append("pairwise drift (worst observed / allowed):")
    for pair, tol in report.tolerances.items():
        lines.append(
            f"  {pair[0]:>9} vs {pair[1]:<7} {worst[pair]:6.2f}x / "
            f"{tol:.1f}x"
        )
    lines.append("")
    for inv in report.inversions:
        lines.append(f"RANK INVERSION  {inv.describe()}")
    for d in report.drifts:
        lines.append(f"DRIFT           {d.describe()}")
    n_workloads = sum(len(g.times) for g in report.groups)
    if report.ok:
        lines.append(
            f"OK: {len(report.groups)} group(s), {n_workloads} workload(s), "
            f"zero ranking inversions, drift within tolerance"
        )
    else:
        lines.append(
            f"FAIL: {len(report.inversions)} ranking inversion(s), "
            f"{len(report.drifts)} drift violation(s)"
        )
    return "\n".join(lines)


def conformance_json(report: ConformanceReport) -> Dict[str, object]:
    """Machine-readable document (the results/conformance.json payload)."""
    return {
        "schema": CONFORMANCE_SCHEMA,
        "scale": report.scale,
        "margin": report.margin,
        "tolerances": {
            f"{a}/{b}": tol for (a, b), tol in report.tolerances.items()
        },
        "groups": {
            g.name: {
                "nprocs": g.nprocs,
                "times_ms": {
                    alg: {b: t * 1e3 for b, t in times.items()}
                    for alg, times in g.times.items()
                },
                "rankings": {b: g.ranking(b) for b in BACKENDS},
            }
            for g in report.groups
        },
        "max_drift": {
            f"{a}/{b}": ratio
            for (a, b), ratio in report.max_drift().items()
        },
        "inversions": [
            {
                "group": i.group,
                "backend_a": i.backend_a,
                "backend_b": i.backend_b,
                "faster_a": i.faster_a,
                "faster_b": i.faster_b,
                "gap_a": i.gap_a,
                "gap_b": i.gap_b,
            }
            for i in report.inversions
        ],
        "drift_violations": [
            {
                "group": d.group,
                "algorithm": d.algorithm,
                "backend_a": d.backend_a,
                "backend_b": d.backend_b,
                "time_a": d.time_a,
                "time_b": d.time_b,
                "ratio": d.ratio,
                "tolerance": d.tolerance,
            }
            for d in report.drifts
        ],
        "ok": report.ok,
    }


def write_conformance(
    report: ConformanceReport, results_dir: Path = Path("results")
) -> Tuple[Path, Path]:
    """Write the text and JSON artifacts; return their paths."""
    return write_artifacts(
        results_dir,
        "conformance",
        render_conformance(report),
        conformance_json(report),
    )
