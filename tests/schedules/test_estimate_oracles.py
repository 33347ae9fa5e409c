"""Column readers against the per-``Transfer`` loops they replace.

The estimator, repair's step pricing and ranking, the locality metrics
and the packet backend read a schedule's columns.  On drawn schedules
and fault models (stragglers and degraded links), and on the paper's
builders, each must give what its scalar oracle
(:mod:`tests.schedules.scalar_oracles`) gives, to the last bit.  The
estimates of the conformance quick grid are pinned as ``float.hex``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, LinkDegrade, NodeStraggler
from repro.faults.model import FaultModel
from repro.machine import CM5Params, MachineConfig
from repro.machine.fattree import fat_tree_for
from repro.schedules import (
    CommPattern,
    Schedule,
    analyze,
    coloring_schedule,
    estimate_schedule_time,
    estimate_step_times,
    linear_broadcast,
    local_schedule,
    recursive_broadcast,
    schedule_irregular,
)
from repro.schedules.irregular import EXCHANGE_ALGORITHMS
from repro.schedules.repair import rank_steps, step_cost_estimate
from repro.sim.packets import packet_schedule_time

from .checks import Step, Transfer, schedule_of, steps_of
from .scalar_oracles import (
    old_analyze,
    old_estimate_schedule_time,
    old_estimate_step_time,
    old_packet_schedule_time,
    old_path_degradation,
    old_rank_steps,
    old_step_cost_estimate,
)

SIZES = (2, 4, 8, 16, 32, 64)

#: Byte counts: small and packet-edge values, and large ones.  Up to
#: 2**55 per transfer a step's byte sum (at most 3 * 64 transfers) fits
#: int64, as ``Schedule.total_bytes`` needs.
BYTES = st.one_of(st.sampled_from((0, 1, 16, 17, 4096)), st.integers(0, 2**55))


@st.composite
def drawn_schedules(draw, sizes=SIZES):
    """A schedule on a power-of-two machine: steps of distinct directed
    pairs (exchanges, fan-ins and mixed steps alike), empty steps too,
    with random byte, pack and unpack counts."""
    n = draw(st.sampled_from(sizes))
    rank = st.integers(0, n - 1)
    pair = st.tuples(rank, rank).filter(lambda p: p[0] != p[1])
    steps = []
    for _ in range(draw(st.integers(0, 5))):
        pairs = draw(st.lists(pair, unique=True, max_size=3 * n))
        fields = [(a, b, draw(BYTES), draw(BYTES), draw(BYTES)) for a, b in pairs]
        steps.append([Transfer(*f) for f in fields])
    return schedule_of(n, steps, "drawn")


@st.composite
def fault_models(draw, nprocs):
    """Stragglers and degraded links (up, down or both) on the machine's
    fat tree, or no fault at all."""
    config = MachineConfig(nprocs)
    faults = []
    for _ in range(draw(st.integers(0, 3))):
        faults.append(
            NodeStraggler(
                draw(st.integers(0, nprocs - 1)),
                draw(st.floats(1.0, 8.0)),
                draw(st.floats(1.0, 8.0)),
            )
        )
    for _ in range(draw(st.integers(0, 3))):
        level = draw(st.integers(1, config.levels))
        span = 4 ** (level - 1)
        faults.append(
            LinkDegrade(
                level,
                draw(st.integers(0, -(-nprocs // span) - 1)),
                draw(st.floats(0.01, 1.0)),
                draw(st.sampled_from(("up", "down", "both"))),
            )
        )
    return FaultModel(FaultPlan(tuple(faults)), fat_tree_for(config))


@st.composite
def schedules_and_models(draw):
    sched = draw(drawn_schedules())
    return sched, draw(fault_models(sched.nprocs))


def builders(n=16):
    """One schedule of every builder on ``n`` nodes."""
    pattern = CommPattern.synthetic(n, 0.5, 700, seed=4)
    out = [build(n, 300) for build in EXCHANGE_ALGORITHMS.values()]
    out += [
        schedule_irregular(pattern, alg)
        for alg in ("linear", "pairwise", "balanced", "greedy")
    ]
    out += [
        local_schedule(pattern),
        coloring_schedule(pattern),
        linear_broadcast(n, 3, 99),
        recursive_broadcast(n, 5, 2000),
    ]
    return out


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(sched=drawn_schedules())
@example(
    sched=schedule_of(
        8,
        [[Transfer(0, 7, 2**62 + 1, 2**62, 3), Transfer(7, 0, 2**57 + 1)]],
    )
)
def test_step_times_match_the_scalar_estimator(sched):
    config = MachineConfig(sched.nprocs)
    got = estimate_step_times(sched.columns, sched.nsteps, config)
    want = [old_estimate_step_time(s, config) for s in steps_of(sched)]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
    assert estimate_schedule_time(sched, config).hex() == sum(want, 0.0).hex()


@pytest.mark.parametrize("sched", builders(), ids=lambda s: s.name)
def test_builders_estimate_as_the_scalar_estimator(sched):
    for params in (CM5Params(routing_jitter=0.0), CM5Params().scaled(memcpy_bandwidth=3e6)):
        config = MachineConfig(16, params)
        got = estimate_schedule_time(sched, config)
        assert got.hex() == old_estimate_schedule_time(sched, config).hex()


def test_estimate_takes_a_smaller_schedule_on_a_padded_machine():
    # local_schedule prices a 6-rank pattern on 8 nodes.
    sched = schedule_irregular(CommPattern.synthetic(6, 0.6, 300, seed=1), "greedy")
    config = MachineConfig(8)
    got = estimate_step_times(sched.columns, sched.nsteps, config).tolist()
    assert got == [old_estimate_step_time(s, config) for s in steps_of(sched)]


#: ``estimate_schedule_time(...).hex()`` on the conformance quick grid
#: (``repro conformance --quick``): Figure 5 at 16 nodes, and the Table
#: 11 densities at 32 nodes, jitter off.  The values are those of the
#: per-transfer estimator.
PINNED = {
    ("fig5/n16/b256", "linear"): "0x1.7667905d04e8cp-6",
    ("fig5/n16/b256", "pairwise"): "0x1.ef83dbed26339p-9",
    ("fig5/n16/b256", "recursive"): "0x1.c14b39644fb5cp-9",
    ("fig5/n16/b256", "balanced"): "0x1.fc1915a5aea5cp-9",
    ("fig5/n16/b1024", "linear"): "0x1.9b6e05163f5ccp-5",
    ("fig5/n16/b1024", "pairwise"): "0x1.d7fc2ade50020p-8",
    ("fig5/n16/b1024", "recursive"): "0x1.7c167bed6141ep-7",
    ("fig5/n16/b1024", "balanced"): "0x1.f1269e4f60e65p-8",
    ("table11/d10/b256", "linear"): "0x1.6ae7d566cf41fp-7",
    ("table11/d10/b256", "pairwise"): "0x1.2cf0f9d2bf554p-8",
    ("table11/d10/b256", "balanced"): "0x1.2d77318fc504cp-8",
    ("table11/d10/b256", "greedy"): "0x1.f10667f90d9d9p-10",
    ("table11/d75/b256", "linear"): "0x1.97ef1f88059d6p-4",
    ("table11/d75/b256", "pairwise"): "0x1.4d3cc9b4ea57fp-7",
    ("table11/d75/b256", "balanced"): "0x1.50890476066c9p-7",
    ("table11/d75/b256", "greedy"): "0x1.726f8924d7502p-7",
}


@pytest.mark.parametrize("group, algorithm", sorted(PINNED))
def test_conformance_quick_grid_estimates_are_pinned(group, algorithm):
    params = CM5Params(routing_jitter=0.0)
    kind, size, nbytes = group.split("/")
    if kind == "fig5":
        config = MachineConfig(16, params)
        sched = EXCHANGE_ALGORITHMS[algorithm](16, int(nbytes[1:]))
    else:
        config = MachineConfig(32, params)
        density = int(size[1:]) / 100
        pattern = CommPattern.synthetic(32, density, int(nbytes[1:]), seed=42)
        sched = schedule_irregular(pattern, algorithm)
    assert estimate_schedule_time(sched, config).hex() == PINNED[group, algorithm]


# ----------------------------------------------------------------------
# Repair's step pricing and ranking
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(case=schedules_and_models())
def test_step_cost_estimate_matches_the_scalar_oracle(case):
    sched, model = case
    config = MachineConfig(sched.nprocs)
    for fault in (None, model):
        got = step_cost_estimate(sched.columns, sched.nsteps, config, fault)
        want = [old_step_cost_estimate(s, config, fault) for s in steps_of(sched)]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


@settings(max_examples=100, deadline=None)
@given(case=schedules_and_models())
def test_path_degradation_matches_the_route_walk(case):
    sched, model = case
    _, src, dst = sched.columns[:3]
    want = [old_path_degradation(model, a, b) for a, b in zip(src.tolist(), dst.tolist())]
    assert model.path_degradation(src, dst).tolist() == want


@settings(max_examples=200, deadline=None)
@given(case=schedules_and_models(), seed=st.integers(0, 2**32 - 1))
def test_rank_steps_matches_the_scalar_ranking(case, seed):
    """Step labels in any order: step ``L``'s transfers are the rows
    labelled ``L``, in column order."""
    sched, model = case
    config = MachineConfig(sched.nprocs)
    cols = sched.columns.copy()
    label = np.random.default_rng(seed).permutation(max(sched.nsteps, 1))
    cols[0] = label[cols[0]]
    steps = [
        Step(tuple(Transfer(*row) for row in cols[1:, cols[0] == i].T.tolist()))
        for i in range(sched.nsteps)
    ]
    healthy = FaultModel(FaultPlan(()), model.tree)
    got = rank_steps(cols, sched.nsteps, config, model)
    assert got == old_rank_steps(steps, config, model)
    got = rank_steps(cols, sched.nsteps, config)
    assert got == old_rank_steps(steps, config, healthy)


def test_rank_steps_without_a_model_prices_nothing(monkeypatch):
    from repro.schedules import repair

    def priced(*args, **kwargs):
        raise AssertionError("rank_steps priced a step without a fault model")

    monkeypatch.setattr(repair, "step_cost_estimate", priced)
    sched = schedule_irregular(CommPattern.synthetic(16, 0.5, 64, seed=3), "greedy")
    order = rank_steps(sched.columns, sched.nsteps, MachineConfig(16))
    assert sorted(order) == list(range(sched.nsteps))


# ----------------------------------------------------------------------
# Locality metrics and the packet backend
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(sched=drawn_schedules())
def test_analyze_matches_the_scalar_metrics(sched):
    config = MachineConfig(sched.nprocs)
    got = analyze(sched, config)
    per_step, participants = old_analyze(sched, config)
    assert got.per_step == per_step
    assert list(got._participants) == participants
    assert got.idle_slots == sum(sched.nprocs - len(p) for p in participants)


@settings(max_examples=40, deadline=None)
@given(sched=drawn_schedules(sizes=(2, 4, 8)))
def test_packet_time_matches_the_scalar_backend(sched):
    small = Schedule(
        sched.nprocs,
        np.minimum(sched.columns, [[2**62]] + [[2**62]] * 2 + [[4096]] * 3),
        nsteps=sched.nsteps,
    )
    config = MachineConfig(sched.nprocs)
    got = packet_schedule_time(small, config)
    assert got.hex() == old_packet_schedule_time(small, config).hex()


@pytest.mark.parametrize("sched", builders(8), ids=lambda s: s.name)
def test_builders_analyze_and_packet_as_the_scalar_readers(sched):
    config = MachineConfig(8)
    per_step, participants = old_analyze(sched, config)
    assert analyze(sched, config).per_step == per_step
    assert packet_schedule_time(sched, config) == old_packet_schedule_time(sched, config)
