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
  artifact (schema ``repro-bench-service/3``, ``"scale": "full"``),
  comparable with ``python -m repro perfcmp``;
* ``--quick``: ``BENCH_service_quick.json`` — a side path, so a CI
  smoke run can never clobber the committed full-scale artifact
  (``--force`` overrides the guard when a path collision does occur);
* ``results/service_bench.txt`` — the human-readable table.

Run standalone (``python benchmarks/bench_service.py [--quick]``) or
under pytest (``PYTHONPATH=src python -m pytest
benchmarks/bench_service.py``; quick scale when
``REPRO_BENCH_SCALE=small``).
"""

import argparse
import os
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.service import (
    render_service_bench,
    run_service_bench,
    write_service_bench,
)


def run_and_save(quick: bool, progress=None, force: bool = False) -> tuple:
    """Run the bench; persist the scale-routed JSON + the text report.

    Returns ``(bench, path)`` — quick runs land in
    ``BENCH_service_quick.json``, full runs in ``BENCH_service.json``
    (see :func:`repro.service.write_service_bench` for the clobber
    guard).
    """
    bench = run_service_bench(quick=quick, progress=progress)
    path = write_service_bench(bench, root=_REPO_ROOT, force=force)
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus and request counts (CI smoke scale); writes "
        "BENCH_service_quick.json instead of the committed artifact",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite a full-scale BENCH_service.json even from a "
        "non-full run",
    )
    cli_args = parser.parse_args()
    doc, out_path = run_and_save(
        cli_args.quick, progress=print, force=cli_args.force
    )
    print()
    print(render_service_bench(doc))
    print(f"[saved to {out_path}]")
