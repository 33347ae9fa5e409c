"""Hypothesis property tests over the scheduling algorithms.

The invariants the paper's algorithms must satisfy for *any* pattern:

* coverage — every required (src, dst, bytes) delivered exactly once,
  nothing spurious, nothing duplicated;
* per-step resources — no processor sends twice or (outside the linear
  family) receives twice within a step;
* executability — the executor drives any schedule to completion on the
  simulator without deadlock, delivering exactly ``n_operations``
  messages.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    balanced_schedule,
    execute_schedule,
    greedy_schedule,
    linear_schedule,
    pairwise_schedule,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step, steps_of

ALGOS = {
    "linear": (linear_schedule, True),
    "pairwise": (pairwise_schedule, False),
    "balanced": (balanced_schedule, False),
    "greedy": (greedy_schedule, False),
}


@st.composite
def patterns(draw, sizes=(4, 8)):
    n = draw(st.sampled_from(sizes))
    density = draw(st.floats(0.02, 1.0))
    rng_seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                m[i, j] = int(rng.integers(1, 2048))
    # Ensure at least one message so schedules are non-trivial.
    if m.sum() == 0:
        m[0, 1] = 64
    return CommPattern(m)


@pytest.mark.parametrize("name", sorted(ALGOS))
@given(pattern=patterns())
@settings(max_examples=50, deadline=None)
def test_coverage_invariant(name, pattern):
    builder, multi = ALGOS[name]
    sched = builder(pattern)
    validate_schedule(sched, pattern)
    if not multi:
        assert_one_receive_per_rank_per_step(sched)


@given(pattern=patterns())
@settings(max_examples=30, deadline=None)
def test_greedy_never_schedules_empty_steps(pattern):
    sched = greedy_schedule(pattern)
    for step in steps_of(sched):
        assert len(step) > 0


@given(pattern=patterns())
@settings(max_examples=30, deadline=None)
def test_greedy_step_count_at_most_message_bound(pattern):
    """Each step delivers >= 1 message, and a processor moves at most
    one message per direction per step."""
    sched = greedy_schedule(pattern)
    max_out = max(
        (len(pattern.sends_of(i)) for i in range(pattern.nprocs)), default=0
    )
    max_in = max(
        (len(pattern.recvs_of(i)) for i in range(pattern.nprocs)), default=0
    )
    assert sched.nsteps <= pattern.n_operations
    assert sched.nsteps >= max(max_out, max_in)


@pytest.mark.parametrize("name", sorted(ALGOS))
@given(pattern=patterns(sizes=(4,)))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_execution_delivers_every_message(name, pattern):
    builder, _ = ALGOS[name]
    cfg = MachineConfig(4, CM5Params(routing_jitter=0.0))
    res = execute_schedule(builder(pattern), cfg)
    assert res.sim.message_count == pattern.n_operations
    assert res.time > 0


@given(pattern=patterns(sizes=(8,)), seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_schedules_are_deterministic(pattern, seed):
    a = greedy_schedule(pattern)
    b = greedy_schedule(pattern)
    assert steps_of(a) == steps_of(b)


@given(pattern=patterns())
@settings(max_examples=40, deadline=None)
def test_coloring_achieves_koenig_optimum(pattern):
    """The edge-coloring schedule meets the chromatic-index bound exactly
    — König's theorem, constructively."""
    from repro.schedules import coloring_schedule, optimal_step_count

    assert coloring_schedule(pattern).nsteps == optimal_step_count(pattern)


@pytest.mark.parametrize("name", ["greedy", "local"])
@given(pattern=patterns(sizes=(4, 8)))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lower_bound_is_sound_for_every_backend(name, pattern):
    """No backend's measured makespan may undercut the makespan lower
    bound, whatever the schedule — the bound is schedule-independent."""
    from repro.schedules import (
        estimate_schedule_time,
        makespan_lower_bound,
        schedule_irregular,
    )
    from repro.sim.packets import packet_schedule_time

    cfg = MachineConfig(pattern.nprocs, CM5Params(routing_jitter=0.0))
    bound = makespan_lower_bound(pattern, cfg)
    sched = schedule_irregular(pattern, name)
    floor = bound.seconds * (1 - 1e-9)
    assert estimate_schedule_time(sched, cfg) >= floor
    assert execute_schedule(sched, cfg).time >= floor
    assert packet_schedule_time(sched, cfg) >= floor


@pytest.mark.parametrize("nbytes", [16, 64, 256])
@pytest.mark.parametrize("nprocs", [8, 16, 32])
@pytest.mark.parametrize("name", ["pairwise", "balanced", "linear"])
def test_lower_bound_is_sound_for_direct_complete_exchanges(name, nprocs, nbytes):
    """The direct-delivery complete exchanges (every message its own
    wire message, ``pack_bytes == 0``) never undercut the bound either.
    REX combines messages and is outside the bound's scope."""
    from repro.schedules import (
        EXCHANGE_ALGORITHMS,
        estimate_schedule_time,
        makespan_lower_bound,
    )
    from repro.sim.packets import packet_schedule_time

    cfg = MachineConfig(nprocs, CM5Params(routing_jitter=0.0))
    pattern = CommPattern.complete_exchange(nprocs, nbytes)
    sched = EXCHANGE_ALGORITHMS[name](nprocs, nbytes)
    assert not sched.columns[4:].any()
    floor = makespan_lower_bound(pattern, cfg).seconds * (1 - 1e-9)
    assert estimate_schedule_time(sched, cfg) >= floor
    assert execute_schedule(sched, cfg).time >= floor
    assert packet_schedule_time(sched, cfg) >= floor


@given(pattern=patterns(), seed=st.integers(0, 50))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_localsearch_output_always_lints(pattern, seed):
    """Every refined schedule preserves the structural invariants —
    coverage, per-step slots, deadlock freedom — for any pattern/seed."""
    from repro.schedules import local_schedule
    from repro.schedules.validate import lint_schedule

    sched = local_schedule(pattern, seed=seed)
    report = lint_schedule(sched, pattern)
    assert report.ok, report
