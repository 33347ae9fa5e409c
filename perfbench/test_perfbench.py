"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Seconds-scale passes over every workload (op sequences truncated, one
cycle, fewer setup repeats) check that each end-to-end and per-layer
metric named in ``BENCHMARK.json`` is emitted with its unit, that a
corrupted expected makespan is counted as a failed op, that the p50
and p90 of irregular_n32 and serve_n32 each sit inside one op class by
exact counts and by measured latency, and that every serve cycle does
the same work.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import exchange  # noqa: E402
import harness  # noqa: E402
import irregular  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    """Shrink every workload to a seconds-scale pass."""
    for module in (exchange, irregular, serve):
        monkeypatch.setattr(module, "SETUP_REPEATS", 2)
    monkeypatch.setattr(exchange, "MIN_CYCLES", 1)
    ex_seq, irr_seq = exchange.op_sequence, irregular.op_sequence
    monkeypatch.setattr(exchange, "op_sequence", lambda *a: ex_seq(*a)[:1])
    monkeypatch.setattr(irregular, "op_sequence", lambda *a: irr_seq(*a)[:6])


def bench(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(quick, capsys, workload, trace):
    doc = bench(capsys, workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_times_are_rescaled_to_the_reference_speed():
    """A segment timed between reference samples that average k times
    the nominal reference reads at (1/k) ** ELASTICITY of its CPU
    seconds, and so do the latencies of its ops."""
    r, e = harness.REFERENCE_SECONDS, harness.ELASTICITY
    loop = harness.Loop(
        latencies=[0.2, 0.4, 0.3],
        segments=[(2, 0.6, 0.6), (1, 0.3, 0.3)],
        refs=[2 * r, 2 * r, r],
    )
    seconds, latencies = harness.rescaled(loop)
    slow, slower = 1.5**-e, 2.0**-e
    assert seconds == pytest.approx(0.6 * slower + 0.3 * slow)
    assert latencies == pytest.approx([0.2 * slower, 0.4 * slower, 0.3 * slow])
    assert harness.end_to_end(loop, [1.0], 1.0)["ops_per_s"] == pytest.approx(
        3 / seconds
    )


def test_corrupted_makespan_is_a_failed_op(quick, capsys, monkeypatch):
    good = harness.load_expected()
    state = exchange.setup(3)
    algorithm, nbytes = exchange.op_sequence(3, 1)[0]
    bad = json.loads(json.dumps(good))
    bad[exchange.NAME][exchange.class_key(algorithm, nbytes)]["makespan"] *= 1 + 1e-12
    assert exchange.run(state, 1, False, good[exchange.NAME]).failed == 0
    assert exchange.run(state, 1, False, bad[exchange.NAME]).failed == 1

    name, _, algorithm = irregular.op_sequence(irregular.setup(3), 1)[0]
    bad[irregular.NAME][irregular.op_key(name, algorithm)]["makespan"] += 1e-9
    monkeypatch.setattr(harness, "load_expected", lambda: bad)
    doc = bench(capsys, irregular.NAME, 0)
    assert doc["correct"] is False and doc["failed"] == 1


def test_percentile_ranks_sit_inside_one_class():
    """The p50 and p90 ranks fall inside one class by the exact op
    counts, and the measured percentiles fall inside that class's
    observed latency range and no other class's."""
    expected = harness.load_expected()
    irr = irregular.run(irregular.setup(0), 1, False, expected[irregular.NAME])
    srv = serve.run(serve.setup(0), 2, False, {})
    for loop in (irr, srv):
        assert loop.failed == 0
        for q in (0.5, 0.9):
            by_count, by_latency, _ = harness.placement(loop, q, run.PLACEMENT_MARGIN)
            assert by_count >= 0 and by_count == by_latency, q


def test_every_cycle_does_the_same_work():
    """Every serve cycle repeats the same patterns and draws its fresh
    patterns from the same densities, for every seed; the tier counts
    match the generator."""
    corpus = [serve.CommPattern(m) for m in serve.corpus_matrices()]
    variants = [
        serve.drift_variant(p, serve.VARIANT_SEED + i) for i, p in enumerate(corpus)
    ]
    per_cycle = sum(serve.CYCLE.values())

    def signature(kind, pattern):
        return kind, id(pattern) if kind in serve.READS else round(pattern.density, 3)

    mixes = set()
    for seed in (1, 2):
        requests = serve.stream(seed, 3, corpus, variants)
        assert len(requests) == 3 * per_cycle
        for c in range(3):
            cycle = requests[c * per_cycle : (c + 1) * per_cycle]
            mixes.add(tuple(sorted(signature(*r) for r in cycle)))
        tiers = [serve.TIER[kind] for kind, _ in requests]
        assert {t: tiers.count(t) for t in serve.TIERS} == serve.tier_counts(3)
    assert len(mixes) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_n32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
