"""Optimality-gap benchmark: heuristics vs proven makespan lower bounds.

Runs :func:`repro.analysis.optgap.run_optgap` over the Table 11 density
sweep and the Table 12 application patterns, pricing every irregular
scheduler (LS/PS/BS/GS, König coloring, local search) through all three
backends and dividing by the endpoint/bisection lower bound.  The assertions are
the harness's teeth:

* every gap >= 1.0 (a smaller gap means the bound is unsound);
* every schedule passes the linter before it is priced;
* at full scale, the local-search refiner strictly beats GS *and* BS on
  the fluid makespan for at least one Table 11 density and at least one
  Table 12 application pattern.

Artifacts land in ``results/optgap.{txt,json}`` (schema
``repro-optgap/2``).  Run under pytest (``PYTHONPATH=src python -m
pytest benchmarks/bench_optgap.py``; quick scale when
``REPRO_BENCH_SCALE=small``); from the command line, ``python -m repro
optgap [--quick]`` runs the same sweep.
"""

import os
from pathlib import Path

from repro.analysis.optgap import render_optgap, run_optgap, write_optgap

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_and_save(quick: bool) -> tuple:
    """Run the sweep and persist results/optgap.{txt,json}."""
    report = run_optgap(quick=quick)
    paths = write_optgap(report, results_dir=_REPO_ROOT / "results")
    return report, paths


def test_optgap(emit):
    quick = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
    report, _ = run_and_save(quick)
    emit("optgap", render_optgap(report))
    assert report.unsound == [], "a measured makespan undercut the bound"
    assert report.lint_failures == [], "a scheduler emitted a bad schedule"
    assert report.ok
    if not quick:
        wins = report.local_wins
        assert any(w.startswith("table11/") for w in wins), (
            "local search should beat GS and BS (fluid) on at least one "
            f"Table 11 density; wins={wins}"
        )
        assert any(w.startswith("table12/") for w in wins), (
            "local search should beat GS and BS (fluid) on at least one "
            f"Table 12 application pattern; wins={wins}"
        )

