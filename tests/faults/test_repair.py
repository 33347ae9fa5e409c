"""Property tests: schedule repair preserves every structural invariant.

:func:`repro.schedules.repair_schedule` only permutes steps, so for any
pattern and any fault plan the repaired schedule must still lint clean
against the pattern (``validate_schedule``: one send per rank per step,
every pattern byte delivered exactly once, no deadlock), receive at
most once per rank per step — and the executor must still drive it to
completion under the same faults.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, LinkDegrade, NodeStraggler
from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    ScheduleError,
    balanced_schedule,
    execute_schedule,
    greedy_schedule,
    pairwise_schedule,
    recursive_exchange,
    repair_schedule,
    validate_schedule,
)

from ..schedules.checks import (
    assert_one_receive_per_rank_per_step,
    schedule_of,
    steps_of,
)
from ..schedules.scalar_oracles import old_rank_steps

BUILDERS = {
    "pairwise": pairwise_schedule,
    "balanced": balanced_schedule,
    "greedy": greedy_schedule,
}


@st.composite
def patterns(draw, sizes=(4, 8)):
    n = draw(st.sampled_from(sizes))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                m[i, j] = int(rng.integers(1, 2048))
    if m.sum() == 0:
        m[0, 1] = 64
    return CommPattern(m)


@st.composite
def fault_plans(draw, nprocs=8):
    faults = []
    for _ in range(draw(st.integers(0, 2))):
        faults.append(
            NodeStraggler(
                draw(st.integers(0, nprocs - 1)),
                draw(st.floats(1.0, 16.0)),
                overhead_factor=draw(st.floats(1.0, 4.0)),
            )
        )
    for _ in range(draw(st.integers(0, 2))):
        level = draw(st.integers(1, 2))
        index = draw(st.integers(0, nprocs // 4 - 1 if level == 2 else nprocs - 1))
        faults.append(
            LinkDegrade(level, index, draw(st.floats(0.05, 1.0)))
        )
    return FaultPlan(tuple(faults), seed=draw(st.integers(0, 100)))


def _step_multiset(sched):
    """Canonical, order-insensitive rendering of a schedule's steps."""
    return sorted(
        sorted((t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes) for t in s)
        for s in steps_of(sched)
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
@given(pattern=patterns(sizes=(8,)), plan=fault_plans())
@settings(max_examples=40, deadline=None)
def test_repair_preserves_coverage_and_structure(name, pattern, plan):
    sched = BUILDERS[name](pattern)
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    repaired = repair_schedule(sched, plan, cfg)
    validate_schedule(repaired, pattern)
    assert_one_receive_per_rank_per_step(repaired)
    assert repaired.nsteps == sched.nsteps
    assert _step_multiset(repaired) == _step_multiset(sched)


def old_repair_schedule(schedule, plan, config):
    """The per-step repair: permute the ``Step`` objects."""
    from repro.faults.model import FaultModel
    from repro.machine.fattree import fat_tree_for

    if not plan.stragglers and not plan.link_degrades:
        return schedule
    model = FaultModel(plan, fat_tree_for(config))
    steps = steps_of(schedule)
    order = old_rank_steps(steps, config, model)
    name = schedule.name
    if not name.endswith("+repair"):
        name = f"{name}+repair"
    return schedule_of(
        schedule.nprocs, [steps[i] for i in order], name, schedule.exchange_order
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
@given(pattern=patterns(sizes=(4, 8, 16)), data=st.data())
@settings(max_examples=40, deadline=None)
def test_repair_permutes_as_the_per_step_repair(name, pattern, data):
    """The column blocks move as the ``Step`` objects did, and a
    schedule whose steps were never materialized stays so."""
    plan = data.draw(fault_plans(nprocs=pattern.nprocs))
    cfg = MachineConfig(pattern.nprocs, CM5Params(routing_jitter=0.0))
    sched = BUILDERS[name](pattern)
    repaired = repair_schedule(sched, plan, cfg)
    assert "steps" not in vars(repaired)
    want = old_repair_schedule(sched, plan, cfg)
    assert (repaired.name, repaired.nsteps) == (want.name, want.nsteps)
    assert np.array_equal(repaired.columns, want.columns)


@given(pattern=patterns(sizes=(4,)), plan=fault_plans(nprocs=4))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_repaired_schedule_executes_under_its_faults(pattern, plan):
    cfg = MachineConfig(4, CM5Params(routing_jitter=0.0))
    repaired = repair_schedule(greedy_schedule(pattern), plan, cfg)
    res = execute_schedule(repaired, cfg, faults=plan)
    assert res.sim.message_count == pattern.n_operations


@given(pattern=patterns(sizes=(8,)), plan=fault_plans())
@settings(max_examples=20, deadline=None)
def test_repair_is_deterministic(pattern, plan):
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    sched = pairwise_schedule(pattern)
    assert (
        steps_of(repair_schedule(sched, plan, cfg))
        == steps_of(repair_schedule(sched, plan, cfg))
    )


def test_repair_noop_without_structural_faults():
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    sched = pairwise_schedule(CommPattern.complete_exchange(8, 64))
    # Message-level faults don't reorder anything: same object back.
    assert repair_schedule(sched, FaultPlan(), cfg) is sched


def test_repair_renames_when_it_reorders():
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    sched = pairwise_schedule(CommPattern.complete_exchange(8, 64))
    plan = FaultPlan((LinkDegrade(1, 3, 0.1),))
    assert repair_schedule(sched, plan, cfg).name == f"{sched.name}+repair"


def test_repair_rejects_store_and_forward():
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    plan = FaultPlan((NodeStraggler(1, 2.0),))
    with pytest.raises(ScheduleError, match="store-and-forward"):
        repair_schedule(recursive_exchange(8, 64), plan, cfg)


def test_repair_rejects_wrong_machine_size():
    cfg = MachineConfig(16, CM5Params(routing_jitter=0.0))
    sched = pairwise_schedule(CommPattern.complete_exchange(8, 64))
    with pytest.raises(ScheduleError, match="16"):
        repair_schedule(sched, FaultPlan((NodeStraggler(1, 2.0),)), cfg)


# ----------------------------------------------------------------------
# step_cost_estimate: stragglers stretch software, never wire time
# ----------------------------------------------------------------------
def test_step_cost_scales_software_not_wire():
    from repro.faults.model import FaultModel
    from repro.machine import wire_bytes
    from repro.machine.fattree import fat_tree_for
    from repro.schedules import Schedule
    from repro.schedules.repair import step_cost_estimate

    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    params = cfg.params
    nbytes = 4096
    step = Schedule(8, [[0], [0], [1], [nbytes], [0], [0]]).columns
    factor = 5.0
    plan = FaultPlan((NodeStraggler(0, factor),))
    model = FaultModel(plan, fat_tree_for(cfg))

    (healthy,) = step_cost_estimate(step, 1, cfg)
    (degraded,) = step_cost_estimate(step, 1, cfg, model)
    level = cfg.route_level(0, 1)
    wire = wire_bytes(nbytes) / params.level_bandwidth(level)
    # Sender side dominates once its overhead is stretched 5x; the wire
    # term must appear exactly once and unscaled.
    assert degraded == pytest.approx(params.send_overhead * factor + wire)
    # The delta is purely software: (factor - 1) * send_overhead.
    sender_healthy = params.send_overhead + wire
    assert degraded - sender_healthy == pytest.approx(
        params.send_overhead * (factor - 1.0)
    )
    assert healthy == pytest.approx(
        max(params.send_overhead, params.recv_overhead) + wire
    )


def test_step_cost_link_degrade_scales_wire_only():
    from repro.faults.model import FaultModel
    from repro.machine import wire_bytes
    from repro.machine.fattree import fat_tree_for
    from repro.schedules import Schedule
    from repro.schedules.repair import step_cost_estimate

    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    params = cfg.params
    nbytes = 4096
    step = Schedule(8, [[0], [0], [1], [nbytes], [0], [0]]).columns
    plan = FaultPlan((LinkDegrade(1, 0, 0.25),))
    model = FaultModel(plan, fat_tree_for(cfg))
    level = cfg.route_level(0, 1)
    wire = wire_bytes(nbytes) / params.level_bandwidth(level)
    (degraded,) = step_cost_estimate(step, 1, cfg, model)
    assert degraded == pytest.approx(params.recv_overhead + wire / 0.25)


# ----------------------------------------------------------------------
# Idempotence: repairing a repaired schedule is a fixed point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BUILDERS))
@given(pattern=patterns(sizes=(8,)), plan=fault_plans())
@settings(max_examples=25, deadline=None)
def test_repair_is_idempotent(name, pattern, plan):
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    once = repair_schedule(BUILDERS[name](pattern), plan, cfg)
    twice = repair_schedule(once, plan, cfg)
    assert steps_of(twice) == steps_of(once)


def test_repair_never_doubles_the_suffix():
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    sched = pairwise_schedule(CommPattern.complete_exchange(8, 64))
    plan = FaultPlan((NodeStraggler(3, 4.0),))
    once = repair_schedule(sched, plan, cfg)
    twice = repair_schedule(once, plan, cfg)
    assert once.name.endswith("+repair")
    assert twice.name == once.name
    assert twice.name.count("+repair") == 1


# ----------------------------------------------------------------------
# rank_steps without a fault model is its healthy ranking
# ----------------------------------------------------------------------
@given(
    pattern=patterns(sizes=(4, 8, 16)),
    name=st.sampled_from(sorted(BUILDERS) + ["recursive"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rank_steps_without_a_model_is_the_healthy_ranking(pattern, name, seed):
    """A builder's steps relabelled in random order (REX's staged bytes
    included), as the service's warm adapt hands them over."""
    from repro.faults.model import FaultModel
    from repro.machine.fattree import fat_tree_for
    from repro.schedules.repair import rank_steps

    config = MachineConfig(pattern.nprocs)
    if name == "recursive":
        built = recursive_exchange(pattern.nprocs, 64)
    else:
        built = BUILDERS[name](pattern)
    cols = built.columns.copy()
    cols[0] = np.random.default_rng(seed).permutation(built.nsteps)[cols[0]]
    model = FaultModel(FaultPlan(()), fat_tree_for(config))
    assert rank_steps(cols, built.nsteps, config) == rank_steps(
        cols, built.nsteps, config, model
    )
