"""Hot-path perf benchmark: wall-clock of the canonical sim workloads.

Unlike the other benchmarks (which regenerate paper exhibits and care
about *simulated* milliseconds), this one measures how long the host
takes to run the simulator's hot path — the struct-of-arrays
:class:`~repro.machine.contention.FluidNetwork` and the compiled
progressive-filling kernel of :mod:`repro.machine.bandwidth`.  Workload
definitions live in :mod:`repro.analysis.perf` so the ``perf`` CLI
subcommand and this script stay in lockstep.

Outputs:

* ``BENCH_sim.json`` at the repo root — machine-readable, diffed by
  ``python -m repro perfcmp`` (CI fails on >25 % regressions against
  the committed ``benchmarks/BENCH_baseline.json``);
* ``results/perf_hotpath.txt`` — the human-readable table.

Run under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_perf_hotpath.py``; quick scale when
``REPRO_BENCH_SCALE=small``); from the command line, ``python -m repro
perf [--quick] [--jobs N]`` run at the repo root writes the same files.
"""

import os
from pathlib import Path

from repro.analysis.perf import render_report, run_perf, write_bench

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_and_save(quick: bool) -> dict:
    """Run the workloads and persist BENCH_sim.json + the text report."""
    bench = run_perf(quick=quick)
    write_bench(bench, _REPO_ROOT / "BENCH_sim.json")
    results = _REPO_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / "perf_hotpath.txt").write_text(render_report(bench) + "\n")
    return bench


def test_perf_hotpath(emit):
    quick = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
    bench = run_and_save(quick)
    emit("perf_hotpath", render_report(bench))
    for name, row in bench["workloads"].items():
        assert row["wall_seconds"] > 0, f"{name}: no time elapsed?"
        assert row["messages"] > 0, f"{name}: workload sent no messages"

