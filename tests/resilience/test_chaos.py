"""Chaos harness: plan generation, invariants, report round-trip."""

import hashlib
import json

from repro.faults import FaultPlan
from repro.resilience import (
    CHAOS_SCHEMA,
    probe_plan,
    random_plan,
    render_chaos,
    run_campaign,
    write_chaos,
)
from repro.resilience.chaos import _makespan_bound


def test_random_plan_is_deterministic():
    a = random_plan(7, 16)
    b = random_plan(7, 16)
    assert a == b
    assert a != random_plan(8, 16)


def test_random_plan_is_valid_for_machine():
    # Every generated fault passes the plan validators and targets an
    # existing rank (construction itself would raise otherwise).
    for seed in range(50):
        plan = random_plan(seed, 8)
        assert 1 <= len(plan.faults) <= 3
        for f in plan.stragglers:
            assert 0 <= f.rank < 8
        for f in plan.node_failures:
            assert 0 <= f.rank < 8
        # Round-trips through the CLI's JSON format.
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_random_plan_covers_all_fault_kinds():
    kinds = set()
    for seed in range(80):
        for f in random_plan(seed, 16).faults:
            kinds.add(type(f).__name__)
    assert kinds == {
        "NodeStraggler",
        "LinkDegrade",
        "MessageDelay",
        "MessageDrop",
        "NodeFailure",
    }


def test_quick_campaign_holds_all_invariants():
    report = run_campaign(quick=True)
    assert report.total == 20
    assert report.ok, [r.violations for r in report.violations]
    # Every run carries a replay digest (the determinism check ran).
    assert all(r.digest for r in report.runs)


#: SHA-256 over the quick campaign's per-run ``digest makespan.hex()
#: bytes`` lines: pins every adaptive run's op sequence and timing.
QUICK_CAMPAIGN_SHA256 = (
    "14970cedac91ab50375d291f7de38a9b344c2523840d2b164c7c5dff3a02f003"
)


def test_quick_campaign_runs_are_pinned():
    report = run_campaign(quick=True)
    lines = [
        f"{r.digest} {r.makespan.hex()} {sorted(r.bytes.items())}"
        for r in report.runs
    ]
    assert len(lines) == 20
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == QUICK_CAMPAIGN_SHA256


def test_campaign_seed_base_shifts_plans():
    a = run_campaign(quick=True, seed_base=0)
    b = run_campaign(quick=True, seed_base=1000)
    assert [r.plan for r in a.runs] != [r.plan for r in b.runs]


def test_probe_plan_runs_one_plan():
    run = probe_plan(random_plan(3, 16))
    assert run.violations == ()
    assert run.nprocs == 16


def test_makespan_bound_scales_with_plan():
    healthy = 10e-3
    assert _makespan_bound(FaultPlan(), healthy, 100) >= healthy * 3
    big = random_plan(1, 16)
    assert _makespan_bound(big, healthy, 100) >= _makespan_bound(
        FaultPlan(), healthy, 100
    )


def test_report_schema_and_files(tmp_path):
    report = run_campaign(quick=True)
    txt, js = write_chaos(report, str(tmp_path))
    doc = json.loads(open(js).read())
    assert doc["schema"] == CHAOS_SCHEMA
    assert doc["total"] == 20
    assert doc["violations"] == 0
    assert len(doc["runs"]) == 20
    rendered = open(txt).read()
    assert "all invariants held" in rendered
    assert rendered.strip() == render_chaos(report).strip()

def test_campaign_parallel_jobs_byte_identical(tmp_path):
    # The worker-pool path must not change a single digit of the report
    # or its artifacts: specs are computed in the parent, results return
    # in input order.
    serial = run_campaign(quick=True, jobs=0)
    parallel = run_campaign(quick=True, jobs=2)
    assert serial.to_dict() == parallel.to_dict()
    a = write_chaos(serial, tmp_path / "serial")
    b = write_chaos(parallel, tmp_path / "parallel")
    for x, y in zip(a, b):
        assert x.read_bytes() == y.read_bytes()


def test_campaign_progress_order_stable_across_jobs():
    def collect(jobs):
        seen = []
        run_campaign(quick=True, jobs=jobs, progress=seen.append)
        return seen

    assert collect(0) == collect(2)
