"""Adaptive execution: correctness, rescheduling wins, degraded completion.

Three claims are pinned here:

* on a healthy machine the adaptive executor delivers exactly the
  pattern (manifest complete, byte counts match the trace) at a
  makespan comparable to the static executor;
* against an *undeclared* straggler it beats the unrepaired static
  schedule by >= 10% and lands within 5% of the oracle (static repair
  given the true fault plan) — the acceptance scenario;
* under a :class:`NodeFailure` the run terminates (no deadlock) with a
  delivery manifest accounting every pattern byte.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, NodeFailure, NodeStraggler
from repro.machine import CM5Params, MachineConfig
from repro.resilience import DeliveryManifest, adaptive_execute
from repro.schedules import (
    CommPattern,
    ScheduleError,
    execute_schedule,
    recursive_exchange,
    repair_schedule,
    schedule_irregular,
)
from repro.schedules.executor import compiled_program

from ..schedules.checks import transfers

CFG32 = MachineConfig(32, CM5Params(routing_jitter=0.0))


def _schedule(algorithm, density, nbytes=16384, nprocs=32, seed=11):
    pattern = CommPattern.synthetic(nprocs, density, nbytes, seed=seed)
    return schedule_irregular(pattern, algorithm)


# ----------------------------------------------------------------------
# Healthy correctness
# ----------------------------------------------------------------------
def test_healthy_run_delivers_everything():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    res = adaptive_execute(sched, CFG32)
    assert res.manifest.complete
    assert res.manifest.bytes_by_status() == {
        "delivered": res.manifest.total_bytes
    }
    assert res.manifest.delivered_bytes == res.sim.trace.delivered_bytes
    assert res.sim.failed_ranks == []


def test_dispatch_order_is_step_permutation():
    sched = _schedule("balanced", 0.3, nbytes=4096)
    res = adaptive_execute(sched, CFG32)
    assert sorted(res.dispatch_order) == list(range(sched.nsteps))


def test_healthy_makespan_comparable_to_static():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    static = execute_schedule(sched, CFG32).time
    adaptive = adaptive_execute(sched, CFG32).time
    # Same steps, same intra-step orderings; the pull order may differ
    # but must not regress materially.
    assert adaptive <= static * 1.10


@pytest.mark.parametrize(
    "algorithm", ["linear", "pairwise", "balanced", "greedy"]
)
def test_step_tags_never_decrease_per_rank(algorithm):
    """The adaptive executor finds a step's ops by binary search on each
    rank's tag column: without memcpy copies the tags must be sorted."""
    program = compiled_program(_schedule(algorithm, 0.4, nbytes=4096))
    assert program.copies == []
    for rank in range(32):
        tags = program.ops[program.starts[rank] : program.starts[rank + 1], 2]
        assert (np.diff(tags) >= 0).all(), rank


def test_rejects_store_and_forward():
    with pytest.raises(ScheduleError, match="store-and-forward"):
        adaptive_execute(recursive_exchange(32, 256), CFG32)


def test_rejects_wrong_machine_size():
    sched = _schedule("greedy", 0.4, nprocs=16)
    with pytest.raises(ScheduleError, match="32"):
        adaptive_execute(sched, CFG32)


# ----------------------------------------------------------------------
# The acceptance scenario: undeclared straggler at N=32
# ----------------------------------------------------------------------
def test_adaptive_beats_static_and_tracks_oracle():
    sched = _schedule("balanced", 0.15)
    plan = FaultPlan(
        (NodeStraggler(5, factor=8.0, overhead_factor=4.0),), seed=1
    )
    static = execute_schedule(sched, CFG32, faults=plan).time
    oracle = execute_schedule(
        repair_schedule(sched, plan, CFG32), CFG32, faults=plan
    ).time
    adaptive = adaptive_execute(sched, CFG32, faults=plan).time
    # >= 10% faster than the unrepaired static order...
    assert adaptive <= static * 0.90, (adaptive, static)
    # ...and within 5% of the oracle that knew the plan in advance.
    assert adaptive <= oracle * 1.05, (adaptive, oracle)


def test_adaptive_reranks_on_detection():
    sched = _schedule("balanced", 0.15)
    plan = FaultPlan(
        (NodeStraggler(5, factor=8.0, overhead_factor=4.0),), seed=1
    )
    res = adaptive_execute(sched, CFG32, faults=plan)
    assert res.rerank_count > 0
    assert 5 in res.monitor.flagged_stragglers()


# ----------------------------------------------------------------------
# Node failure: degraded completion with full accounting
# ----------------------------------------------------------------------
def test_node_failure_terminates_with_full_manifest():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    plan = FaultPlan((NodeFailure(3, at=1e-3),), seed=2)
    res = adaptive_execute(sched, CFG32, faults=plan)
    assert res.sim.failed_ranks == [3]
    manifest = res.manifest
    assert manifest.complete
    by_status = manifest.bytes_by_status()
    # Every byte lands in exactly one bucket; the buckets sum exactly.
    assert sum(by_status.values()) == manifest.total_bytes
    assert manifest.delivered_bytes == res.sim.trace.delivered_bytes
    # Everything not delivered names the dead rank as the cause.
    for oc in manifest.outcomes():
        if oc.status == "dead_src":
            assert oc.src == 3
        elif oc.status == "dead_dst":
            assert oc.dst == 3
        else:
            assert oc.status == "delivered"


def test_node_failure_survivors_deliver_their_traffic():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    plan = FaultPlan((NodeFailure(3, at=1e-3),), seed=2)
    res = adaptive_execute(sched, CFG32, faults=plan)
    survivor_bytes = sum(
        t.nbytes
        for _, t in transfers(sched)
        if t.src != 3 and t.dst != 3
    )
    # Byte conservation among survivors: every survivor-to-survivor
    # transfer is delivered (rank 3's traffic is the only casualty).
    delivered = sum(
        oc.nbytes
        for oc in res.manifest.outcomes()
        if oc.status == "delivered"
    )
    assert delivered == survivor_bytes


def test_two_failures_still_terminate():
    sched = _schedule("balanced", 0.3, nbytes=4096)
    plan = FaultPlan((NodeFailure(3, at=5e-4), NodeFailure(9, at=2e-3)), seed=4)
    res = adaptive_execute(sched, CFG32, faults=plan)
    assert res.sim.failed_ranks == [3, 9]
    assert res.manifest.complete


def test_failure_before_start_degrades_whole_rank():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    plan = FaultPlan((NodeFailure(3, at=0.0),), seed=2)
    res = adaptive_execute(sched, CFG32, faults=plan)
    assert res.manifest.complete
    assert res.manifest.bytes_by_status().get("delivered", 0) > 0


# ----------------------------------------------------------------------
# Manifest unit behavior
# ----------------------------------------------------------------------
def test_manifest_first_final_status_wins():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    sid, t = next(transfers(sched))
    m = DeliveryManifest(sched)
    m.mark(sid, t.src, t.dst, "delivered")
    m.mark(sid, t.src, t.dst, "dead_dst")  # late duplicate: ignored
    assert any(
        oc.status == "delivered"
        for oc in m.outcomes()
        if (oc.step, oc.src, oc.dst) == (sid, t.src, t.dst)
    )


def test_manifest_finalize_resolves_dead_endpoints():
    sched = _schedule("greedy", 0.4, nbytes=4096)
    m = DeliveryManifest(sched)
    m.finalize(dead={3})
    for oc in m.outcomes():
        if oc.src == 3:
            assert oc.status == "dead_src"
        elif oc.dst == 3:
            assert oc.status == "dead_dst"
        else:
            assert oc.status == "pending"
