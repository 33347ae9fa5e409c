"""Optimality-gap harness: measured makespans vs proven lower bounds.

ROADMAP item 3 asks how far the paper's 1992 heuristics sit from
optimal.  :mod:`repro.schedules.bound` supplies schedule-independent
makespan lower bounds (endpoint serialized work, fat-tree cut loads,
and their LP combination); this harness prices every irregular
scheduler — the paper's LS/PS/BS/GS, the König coloring, and the
local-search refiner — with all three conformance backends and reports
the **gap**::

    gap(algorithm, backend) = measured makespan / lower bound

A gap of 1.0 would be a certified-optimal schedule; every gap must be
>= 1.0 or the bound is unsound (that check is the harness's teeth, and
the ``optgap-smoke`` CI job runs it on every push).  Every schedule is
linted against its pattern before pricing, so a malformed schedule
fails loudly rather than reporting a flattering gap.

Workloads mirror the conformance harness: the Table 11 density sweep
and the Table 12 application patterns at 32 nodes (full scale), or a
small N=8/16 grid (``quick``).  ``write_optgap`` emits
``results/optgap.txt`` and ``results/optgap.json``
(schema ``repro-optgap/1``); the CLI (``python -m repro optgap``) exits
non-zero when any gap dips below 1.0 or any schedule fails the linter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.workloads import paper_workload, workload_names
from ..campaign import write_artifacts
from ..machine.params import CM5Params, MachineConfig
from ..schedules.bound import LowerBound, makespan_lower_bound
from ..schedules.coloring import coloring_schedule
from ..schedules.irregular import algorithm_names, schedule_irregular
from ..schedules.pattern import CommPattern
from ..schedules.validate import LintError
from .conformance import BACKENDS, backend_times

__all__ = [
    "OPTGAP_SCHEMA",
    "GapEntry",
    "GroupGaps",
    "OptgapReport",
    "pattern_gaps",
    "run_optgap",
    "render_optgap",
    "optgap_json",
    "write_optgap",
]

OPTGAP_SCHEMA = "repro-optgap/1"

#: Slack below 1.0 tolerated before a gap counts as a soundness
#: violation: floating-point rounding only, not model error.
_GAP_SLACK = 1e-9

_TABLE11_DENSITIES_FULL = (0.10, 0.25, 0.50, 0.75)
_TABLE11_DENSITIES_QUICK = (0.10, 0.75)
_TABLE11_SEED = 42


@dataclass(frozen=True)
class GapEntry:
    """One algorithm's measured times and gaps on one pattern."""

    algorithm: str
    #: backend -> measured seconds.
    times: Dict[str, float]
    #: backend -> time / lower bound (1.0 when both are zero).
    gaps: Dict[str, float]

    @property
    def min_gap(self) -> float:
        return min(self.gaps.values())


@dataclass
class GroupGaps:
    """One pattern: its lower bound and every algorithm's gaps."""

    name: str
    nprocs: int
    bound: LowerBound
    entries: List[GapEntry] = field(default_factory=list)
    lint_failures: List[str] = field(default_factory=list)

    def entry(self, algorithm: str) -> Optional[GapEntry]:
        for e in self.entries:
            if e.algorithm == algorithm:
                return e
        return None

    @property
    def local_beats_gs_bs(self) -> bool:
        """Does ``local`` strictly win the fluid makespan vs GS and BS?"""
        local = self.entry("local")
        gs = self.entry("greedy")
        bs = self.entry("balanced")
        if local is None or gs is None or bs is None:
            return False
        return (
            local.times["fluid"] < gs.times["fluid"]
            and local.times["fluid"] < bs.times["fluid"]
        )


@dataclass
class OptgapReport:
    """Full harness outcome."""

    scale: str
    groups: List[GroupGaps] = field(default_factory=list)

    @property
    def unsound(self) -> List[Tuple[str, str, str, float]]:
        """(group, algorithm, backend, gap) entries with gap < 1."""
        out = []
        for g in self.groups:
            for e in g.entries:
                for backend, gap in e.gaps.items():
                    if gap < 1.0 - _GAP_SLACK:
                        out.append((g.name, e.algorithm, backend, gap))
        return out

    @property
    def lint_failures(self) -> List[Tuple[str, str]]:
        return [
            (g.name, msg) for g in self.groups for msg in g.lint_failures
        ]

    @property
    def ok(self) -> bool:
        return not self.unsound and not self.lint_failures

    @property
    def local_wins(self) -> List[str]:
        """Groups where ``local`` strictly beats GS and BS (fluid)."""
        return [g.name for g in self.groups if g.local_beats_gs_bs]


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
def _gap(time: float, bound: float) -> float:
    if bound <= 0.0:
        # Only an empty pattern has a zero bound; a zero measured time
        # is then (vacuously) optimal.
        return 1.0 if time <= 0.0 else float("inf")
    return time / bound


def pattern_gaps(
    name: str,
    pattern: CommPattern,
    config: MachineConfig,
    algorithms: Optional[Tuple[str, ...]] = None,
) -> GroupGaps:
    """Price every algorithm on one pattern and divide by the bound.

    Schedules are linted (structure, byte conservation, deadlock) by
    :func:`repro.analysis.conformance.backend_times` before pricing; a
    lint failure is recorded in the group instead of aborting the sweep,
    and makes the report fail.
    """
    bound = makespan_lower_bound(pattern, config, config.params)
    group = GroupGaps(name=name, nprocs=pattern.nprocs, bound=bound)
    names = algorithms if algorithms is not None else tuple(algorithm_names())
    builders: List[Tuple[str, Callable[[], object]]] = [
        (alg, (lambda a=alg: schedule_irregular(pattern, a))) for alg in names
    ]
    builders.append(("coloring", lambda: coloring_schedule(pattern)))
    for alg, build in builders:
        try:
            times = backend_times(build(), config, pattern)
        except LintError as exc:
            group.lint_failures.append(f"{alg}: {exc}")
            continue
        gaps = {b: _gap(t, bound.seconds) for b, t in times.items()}
        group.entries.append(GapEntry(algorithm=alg, times=times, gaps=gaps))
    return group


# ----------------------------------------------------------------------
# Workload grid
# ----------------------------------------------------------------------
def run_optgap(
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> OptgapReport:
    """Run the gap sweep over the Table 11 / Table 12 grid."""
    params = CM5Params(routing_jitter=0.0)
    report = OptgapReport(scale="quick" if quick else "full")

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def add(name: str, pattern: CommPattern) -> None:
        cfg = MachineConfig(pattern.nprocs, params)
        group = pattern_gaps(name, pattern, cfg)
        report.groups.append(group)
        worst = max((e.gaps["fluid"] for e in group.entries), default=0.0)
        note(
            f"  {name}: bound {group.bound.seconds * 1e3:.3f} ms, "
            f"worst fluid gap {worst:.2f}x"
        )

    if quick:
        # Small machines keep the CI job fast while still exercising
        # every algorithm, every backend, and both bound families.
        note("Table 11 densities (8 and 16 nodes, quick)")
        for nprocs in (8, 16):
            for d in _TABLE11_DENSITIES_QUICK:
                pattern = CommPattern.synthetic(
                    nprocs, d, 256, seed=_TABLE11_SEED
                )
                add(f"table11/n{nprocs}/d{int(d * 100)}/b256", pattern)
        note("Application pattern (16 nodes, quick)")
        add("table12/n16/cg16k", paper_workload("cg16k", 16).pattern)
        return report

    note("Table 11 densities (32 nodes)")
    for d in _TABLE11_DENSITIES_FULL:
        for nbytes in (256, 512):
            pattern = CommPattern.synthetic(32, d, nbytes, seed=_TABLE11_SEED)
            add(f"table11/d{int(d * 100)}/b{nbytes}", pattern)
    note("Table 12 application patterns (32 nodes)")
    for wl_name in workload_names():
        add(f"table12/{wl_name}", paper_workload(wl_name, 32).pattern)
    return report


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_optgap(report: OptgapReport) -> str:
    """Fixed-width text report (the results/optgap.txt payload)."""
    lines = [
        f"Optimality gaps vs makespan lower bounds ({report.scale} scale)",
        "gap = measured / bound; 1.00x would be certified optimal",
        "",
    ]
    for g in report.groups:
        lines.append(f"{g.name} ({g.nprocs} nodes)")
        lines.append(f"  {g.bound.describe()}")
        header = f"  {'algorithm':<12}" + "".join(
            f"{b + ' gap':>14}" for b in BACKENDS
        )
        lines.append(header)
        for e in g.entries:
            lines.append(
                f"  {e.algorithm:<12}"
                + "".join(f"{e.gaps[b]:13.2f}x" for b in BACKENDS)
            )
        for msg in g.lint_failures:
            lines.append(f"  LINT FAIL     {msg}")
        if g.local_beats_gs_bs:
            lines.append("  local beats greedy and balanced (fluid)")
        lines.append("")
    wins = report.local_wins
    lines.append(
        f"local-search wins (fluid, vs GS and BS): {len(wins)} pattern(s)"
        + (f" — {', '.join(wins)}" if wins else "")
    )
    for group, alg, backend, gap in report.unsound:
        lines.append(
            f"UNSOUND BOUND   {group}/{alg}: {backend} gap {gap:.4f}x < 1"
        )
    for group, msg in report.lint_failures:
        lines.append(f"LINT FAILURE    {group}: {msg}")
    n = sum(len(g.entries) for g in report.groups)
    if report.ok:
        lines.append(
            f"OK: {len(report.groups)} pattern(s), {n} schedule(s), every "
            f"gap >= 1.0, all schedules lint clean"
        )
    else:
        lines.append(
            f"FAIL: {len(report.unsound)} unsound gap(s), "
            f"{len(report.lint_failures)} lint failure(s)"
        )
    return "\n".join(lines)


def optgap_json(report: OptgapReport) -> Dict[str, object]:
    """Machine-readable document (the results/optgap.json payload)."""
    return {
        "schema": OPTGAP_SCHEMA,
        "scale": report.scale,
        "groups": {
            g.name: {
                "nprocs": g.nprocs,
                "bound": {
                    "seconds": g.bound.seconds,
                    "endpoint": g.bound.endpoint,
                    "endpoint_rank": g.bound.endpoint_rank,
                    "bisection": g.bound.bisection,
                    "bisection_cut": (
                        list(g.bound.bisection_cut)
                        if g.bound.bisection_cut is not None
                        else None
                    ),
                    "lp": g.bound.lp,
                    "binding": g.bound.binding,
                },
                "times_ms": {
                    e.algorithm: {b: t * 1e3 for b, t in e.times.items()}
                    for e in g.entries
                },
                "gaps": {
                    e.algorithm: dict(e.gaps) for e in g.entries
                },
                "lint_failures": list(g.lint_failures),
                "local_beats_gs_bs": g.local_beats_gs_bs,
            }
            for g in report.groups
        },
        "local_wins": report.local_wins,
        "unsound": [
            {"group": grp, "algorithm": alg, "backend": b, "gap": gap}
            for grp, alg, b, gap in report.unsound
        ],
        "ok": report.ok,
    }


def write_optgap(
    report: OptgapReport, results_dir: Path = Path("results")
) -> Tuple[Path, Path]:
    """Write the text and JSON artifacts; return their paths."""
    return write_artifacts(
        results_dir, "optgap", render_optgap(report), optgap_json(report)
    )
