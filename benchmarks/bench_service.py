"""Service-layer benchmark: sustained scheduling throughput under load.

Where the other benchmarks measure one schedule (construction cost,
simulated exchange time), this one measures the *serving* layer of
:mod:`repro.service`: a Zipf-distributed stream of scheduling requests
over a Table 11-style pattern corpus, with a fraction of requests
drifted one cell to exercise the warm-start repair tier.  The naive
baseline rebuilds every request from scratch through the same builder
registry, so ``speedup`` is the honest value of the content-addressed
cache + single-flight dedup + warm-start tiers.

Outputs:

* full scale: ``BENCH_service.json`` at the repo root — the committed
  artifact (schema ``repro-bench-service/3``, ``"scale": "full"``);
* ``--quick``: ``BENCH_service_quick.json`` — a side path, so a CI
  smoke run can never clobber the committed full-scale artifact
  (``--force`` overrides the guard when a path collision does occur);
* ``results/service_bench.txt`` — the human-readable table.

Run under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_service.py``; quick scale when
``REPRO_BENCH_SCALE=small``); from the command line, ``python -m repro
serve-bench [--quick] [--force]`` writes the same files.
"""

import os
from pathlib import Path

from repro.service import (
    render_service_bench,
    run_service_bench,
    write_service_bench,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def run_and_save(quick: bool) -> tuple:
    """Run the bench; persist the scale-routed JSON + the text report.

    Returns ``(bench, path)`` — quick runs land in
    ``BENCH_service_quick.json``, full runs in ``BENCH_service.json``
    (see :func:`repro.service.write_service_bench` for the clobber
    guard).
    """
    bench = run_service_bench(quick=quick)
    path = write_service_bench(bench, root=_REPO_ROOT)
    results = _REPO_ROOT / "results"
    results.mkdir(exist_ok=True)
    (results / "service_bench.txt").write_text(
        render_service_bench(bench) + "\n"
    )
    return bench, path


def test_service_bench(emit):
    quick = os.environ.get("REPRO_BENCH_SCALE", "full") == "small"
    bench, _ = run_and_save(quick)
    emit("service_bench", render_service_bench(bench))
    assert bench["scale"] == ("quick" if quick else "full")
    for name, row in bench["workloads"].items():
        assert row["lint_failures"] == 0, f"{name}: served a bad schedule"
        assert row["hit_rate"] > 0, f"{name}: cache never hit"
        assert row["schedules_per_sec"] > 0, f"{name}: no throughput"

