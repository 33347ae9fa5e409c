"""Diff two ``BENCH_sim.json`` files and flag wall-clock regressions.

The perf harness (:mod:`repro.analysis.perf`) emits machine-readable
timing documents; this module compares a *baseline* against a *current*
run::

    python -m repro perfcmp --baseline benchmarks/BENCH_baseline.json \
        --current BENCH_sim.json --threshold 0.25

A workload regresses when its wall time exceeds the baseline by more
than ``threshold`` (default 10 %).  ``sim_ms`` is also cross-checked:
simulated time must be *identical* between runs of the same workload —
a drift there is a correctness problem masquerading as a perf delta,
and is reported as such (machine differences change wall clock, never
simulated milliseconds).

Both BENCH families are accepted — ``repro-bench-sim/*`` (the hot-path
perf harness) and ``repro-bench-service/*`` (the scheduling-service
bench) — but baseline and current must carry the *same* schema: a
different family or a different version within one family is a hard
error.  A workload whose ``sim_ms`` is present on one side only counts
as a simulated-time drift (the service schema carries it on neither
side).

Both documents must also declare the *same* ``"scale"`` (``"quick"`` vs
``"full"``): a quick run judged against a full baseline (or vice versa)
compares different workload sweeps under different rep counts and is
meaningless — that mismatch, or a document missing the ``scale`` field
entirely (an artifact written by an older harness, or clobbered by a
smoke run), is a hard error, not a warning.

Workloads present in only one file are listed per name *and* counted in
the summary line, but never judged as regressions (the intersection is
what is judged).  A workload whose baseline wall time is zero or
negative is a hard error — such a baseline can never flag a regression,
so silently accepting it would turn the comparison into a no-op.

A regression must clear the relative ``threshold`` *and* an absolute
``min_delta`` floor (default 0.05 s).  The batched engine shrank the
quick workloads to single-digit milliseconds, where between-process
scheduler noise alone is 30-80 % of the wall time — a purely relative
threshold there flags noise, not regressions.  The floor is far below
any change worth acting on (a genuine order-of-magnitude engine
regression moves even a 10 ms workload past it, and full-scale
workloads dwarf it), so it suppresses only the noise band.  Pass
``--min-delta 0`` to restore the pure-relative behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

__all__ = ["PerfDelta", "PerfComparison", "load_bench", "compare_benches", "render_comparison"]

#: Default relative wall-clock slack before a workload counts as regressed.
DEFAULT_THRESHOLD = 0.10

#: Default absolute wall-clock floor (seconds): deltas below this are
#: scheduler noise on millisecond-scale workloads, whatever the ratio.
DEFAULT_MIN_DELTA = 0.05


#: BENCH schema families perfcmp understands.  Every family's workloads
#: carry ``wall_seconds``; ``sim_ms`` cross-checking only applies where
#: present (the service schema has no simulated time).
_SCHEMA_FAMILIES = ("repro-bench-sim/", "repro-bench-service/")


def load_bench(path) -> Dict[str, object]:
    """Load and minimally validate one BENCH document."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "workloads" not in doc:
        raise ValueError(f"{path}: not a BENCH document (no 'workloads' key)")
    schema = doc.get("schema", "")
    if not any(str(schema).startswith(f) for f in _SCHEMA_FAMILIES):
        raise ValueError(f"{path}: unknown BENCH schema {schema!r}")
    return doc


@dataclass(frozen=True)
class PerfDelta:
    """One workload's baseline-vs-current comparison."""

    name: str
    baseline_s: float
    current_s: float
    #: (current - baseline) / baseline
    ratio: float
    regressed: bool
    #: Simulated time moved between runs — a correctness red flag.
    sim_drift: bool


@dataclass
class PerfComparison:
    """Full comparison of two BENCH documents."""

    threshold: float
    min_delta: float = DEFAULT_MIN_DELTA
    deltas: List[PerfDelta] = field(default_factory=list)
    only_baseline: List[str] = field(default_factory=list)
    only_current: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[PerfDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def sim_drifts(self) -> List[PerfDelta]:
        return [d for d in self.deltas if d.sim_drift]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.sim_drifts


def compare_benches(
    baseline: Dict[str, object],
    current: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    min_delta: float = DEFAULT_MIN_DELTA,
) -> PerfComparison:
    """Compare per-workload wall times; see the module docstring."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if min_delta < 0:
        raise ValueError(f"min_delta must be non-negative, got {min_delta}")
    if baseline.get("schema") != current.get("schema"):
        raise ValueError(
            f"schema mismatch: baseline {baseline.get('schema')!r} vs "
            f"current {current.get('schema')!r}; only documents of one "
            "schema version compare"
        )
    b_scale, c_scale = baseline.get("scale"), current.get("scale")
    if b_scale is None or c_scale is None:
        # An artifact without the field predates the scale stamp or was
        # clobbered by a harness that dropped it; judging it silently
        # is how a quick smoke run overwrites a full baseline unnoticed.
        missing = " and ".join(
            role
            for role, scale in (("baseline", b_scale), ("current", c_scale))
            if scale is None
        )
        raise ValueError(
            f"{missing} BENCH document missing the 'scale' field; "
            "regenerate the artifact with the current harness"
        )
    if b_scale != c_scale:
        raise ValueError(
            f"scale mismatch: baseline is {b_scale!r} but current is "
            f"{c_scale!r}; quick and full runs time different sweeps and "
            "must not be judged against each other"
        )
    base_wl: Dict[str, dict] = baseline["workloads"]  # type: ignore[assignment]
    cur_wl: Dict[str, dict] = current["workloads"]  # type: ignore[assignment]
    cmp = PerfComparison(threshold=threshold, min_delta=min_delta)
    cmp.only_baseline = sorted(set(base_wl) - set(cur_wl))
    cmp.only_current = sorted(set(cur_wl) - set(base_wl))
    for name in (n for n in cur_wl if n in base_wl):
        b, c = base_wl[name], cur_wl[name]
        base_s = float(b["wall_seconds"])
        cur_s = float(c["wall_seconds"])
        if base_s <= 0:
            # A zero/negative baseline would make every current time
            # "not a regression" — that is a broken baseline capture,
            # not a pass, and must stop the comparison loudly.
            raise ValueError(
                f"workload {name!r}: non-positive baseline wall time "
                f"{base_s}; recapture the baseline BENCH file"
            )
        ratio = (cur_s - base_s) / base_s
        cmp.deltas.append(
            PerfDelta(
                name=name,
                baseline_s=base_s,
                current_s=cur_s,
                ratio=ratio,
                regressed=ratio > threshold and (cur_s - base_s) > min_delta,
                # Absent on both sides (the service schema) is no drift;
                # absent on one side is.
                sim_drift=b.get("sim_ms") != c.get("sim_ms"),
            )
        )
    return cmp


def render_comparison(cmp: PerfComparison) -> str:
    """Fixed-width report; one line per compared workload."""
    lines = [
        f"{'workload':<24} {'base s':>9} {'cur s':>9} {'delta':>8}  verdict",
    ]
    for d in cmp.deltas:
        verdict = "ok"
        if d.regressed:
            verdict = f"REGRESSED (> {cmp.threshold:.0%})"
        elif d.ratio > cmp.threshold:
            verdict = f"ok (within {cmp.min_delta:g}s noise floor)"
        if d.sim_drift:
            verdict += " SIM-DRIFT"
        lines.append(
            f"{d.name:<24} {d.baseline_s:9.2f} {d.current_s:9.2f} "
            f"{d.ratio:+7.1%}  {verdict}"
        )
    for name in cmp.only_baseline:
        lines.append(f"{name:<24} (baseline only — skipped)")
    for name in cmp.only_current:
        lines.append(f"{name:<24} (current only — skipped)")
    n_reg, n_drift = len(cmp.regressions), len(cmp.sim_drifts)
    skipped = ""
    if cmp.only_baseline or cmp.only_current:
        skipped = (
            f" ({len(cmp.only_baseline)} baseline-only, "
            f"{len(cmp.only_current)} current-only workload(s) skipped)"
        )
    if cmp.ok:
        lines.append(f"OK: no regressions beyond {cmp.threshold:.0%}{skipped}")
    else:
        lines.append(
            f"FAIL: {n_reg} regression(s) beyond {cmp.threshold:.0%}, "
            f"{n_drift} simulated-time drift(s){skipped}"
        )
    return "\n".join(lines)
