"""The compiled schedule executor against the generator path.

With the kernel loaded, an untraced, fault-free ``execute_schedule``
runs the schedule's flat rank programs inside the compiled drain loop
(``Engine._run_compiled``).  ``run_spmd(cfg, schedule_program, sched)``
is the reference: the two must agree to the last bit of every
timestamp, fail with the same errors, and the compiled path must
actually be taken where it applies.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cmmd import run_spmd
from repro.faults import FaultPlan, NodeStraggler
from repro.machine import CM5Params, MachineConfig
from repro.machine._fastfill import kernel
from repro.schedules import (
    CommPattern,
    execute_schedule,
    lint_schedule,
    pairwise_exchange,
    recursive_exchange,
    schedule_from_json,
    schedule_irregular,
    schedule_program,
    schedule_to_json,
    validate_schedule,
)
from repro.schedules.executor import compiled_program
from repro.schedules.irregular import EXCHANGE_ALGORITHMS, IRREGULAR_ALGORITHMS
from repro.sim.engine import DeadlockError, Engine

from .checks import Transfer, schedule_of

needs_kernel = pytest.mark.skipif(
    kernel() is None, reason="compiled kernel not loaded"
)

#: The paper's irregular schedulers (LS/PS/BS/GS).
IRREGULAR = ("linear", "pairwise", "balanced", "greedy")


def observables(sim):
    """Everything a SimResult reports, at ``repr`` (every-bit) level."""
    return repr(
        (sim.makespan, sim.finish_times, sim.wait_times, sim.message_count)
    )


@contextmanager
def counting_resumes():
    """Count ``Engine._resume`` calls (generator-path resumptions)."""
    calls = [0]
    original = Engine._resume

    def wrapper(self, proc, value):
        calls[0] += 1
        return original(self, proc, value)

    Engine._resume = wrapper
    try:
        yield calls
    finally:
        Engine._resume = original


@st.composite
def exchange_cases(draw):
    name = draw(st.sampled_from(sorted(EXCHANGE_ALGORITHMS)))
    n = draw(st.sampled_from((4, 8, 16, 32)))
    nbytes = draw(st.integers(0, 2048))
    return EXCHANGE_ALGORITHMS[name](n, nbytes), None


@st.composite
def irregular_cases(draw):
    name = draw(st.sampled_from(IRREGULAR))
    n = draw(st.sampled_from((4, 8, 16)))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                m[i, j] = int(rng.integers(0, 2048))
    m[0, 1] = max(m[0, 1], 1)  # at least one message
    pattern = CommPattern(m)
    return IRREGULAR_ALGORITHMS[name](pattern), pattern


#: Machine software costs: the calibrated ones, and zero overheads, under
#: which a message's sender and receiver resume in the same instant and
#: a flow starts in the instant of its match, so the executor's event
#: order within an instant shows in the result.
PARAMS = {
    "calibrated": CM5Params(),
    "zero-recv": CM5Params(recv_overhead=0.0),
    "zero-all": CM5Params(send_overhead=0.0, recv_overhead=0.0, wire_latency=0.0),
}


@needs_kernel
@given(
    case=st.one_of(exchange_cases(), irregular_cases()),
    params=st.sampled_from(sorted(PARAMS)),
    seed=st.integers(1, 2**31),
)
@settings(max_examples=100, deadline=None)
def test_compiled_executor_matches_generator_path(case, params, seed):
    """Random linted schedules (REX's pack/unpack Delays included), with
    routing jitter on and a non-zero seed: the compiled executor and the
    generator path agree on every reported time."""
    sched, pattern = case
    assert lint_schedule(sched, pattern).ok
    config = MachineConfig(sched.nprocs, PARAMS[params])
    assert config.params.routing_jitter > 0
    with counting_resumes() as resumes:
        compiled = execute_schedule(sched, config, seed=seed).sim
    assert resumes[0] == 0, "execute_schedule fell back to the generators"
    reference = run_spmd(config, schedule_program, sched, seed=seed)
    assert observables(compiled) == observables(reference)
    assert compiled.results == reference.results
    assert compiled.failed_ranks == reference.failed_ranks == []


@needs_kernel
def test_untraced_default_run_takes_the_compiled_executor():
    with counting_resumes() as resumes:
        res = execute_schedule(pairwise_exchange(8, 64), MachineConfig(8))
    assert resumes[0] == 0
    assert res.sim.message_count == 56


@needs_kernel
def test_untraced_exchange_at_scale_takes_the_compiled_executor():
    """PEX is built as columns and compiled from them: 128 ranks run in
    the kernel's loop without resuming a generator."""
    with counting_resumes() as resumes:
        res = execute_schedule(pairwise_exchange(128, 512), MachineConfig(128))
    assert res.sim.message_count == 128 * 127
    assert resumes[0] == 0


@needs_kernel
@pytest.mark.parametrize("algorithm", IRREGULAR)
def test_untraced_irregular_op_lints_runs_and_round_trips(algorithm):
    """Build, lint against the pattern, execute and serialize all read
    the columns: one irregular op end to end."""
    pattern = CommPattern.synthetic(32, 0.5, 256, seed=11)
    sched = schedule_irregular(pattern, algorithm)
    assert validate_schedule(sched, pattern).ok
    with counting_resumes() as resumes:
        res = execute_schedule(sched, MachineConfig(32))
    assert resumes[0] == 0
    assert res.sim.message_count == pattern.n_operations
    assert schedule_from_json(schedule_to_json(sched)) == sched


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trace": True},
        {"faults": FaultPlan((NodeStraggler(1, 2.0),))},
        {"tracer": "attached"},
        {"tracer": "current"},
    ],
    ids=["trace", "faults", "tracer", "current-tracer"],
)
def test_traced_or_faulted_runs_keep_the_generator_path(kwargs):
    config = MachineConfig(8)
    sched = recursive_exchange(8, 256)
    kwargs = dict(kwargs)
    with counting_resumes() as resumes:
        if kwargs.get("tracer") == "current":
            del kwargs["tracer"]
            with obs.tracing():
                execute_schedule(sched, config, **kwargs)
        else:
            if kwargs.get("tracer") == "attached":
                kwargs["tracer"] = obs.Tracer()
            execute_schedule(sched, config, **kwargs)
    assert resumes[0] > 0


# ----------------------------------------------------------------------
# Error parity: the compiled path fails exactly as the generators do.
# ----------------------------------------------------------------------
def _error(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_deadlock_raises_the_generator_paths_error():
    # Ranks 1 and 3 each block receiving from the other in step 2.
    steps = [
        [(3, 0), (0, 1), (2, 1), (1, 0)],
        [(2, 0), (3, 1), (0, 3), (1, 3)],
    ]
    sched = schedule_of(
        4, [[Transfer(a, b, 64) for a, b in s] for s in steps], name="hand"
    )
    config = MachineConfig(4)
    if kernel() is not None:
        p = compiled_program(sched)
        assert Engine(config)._run_compiled(p.ops, p.starts, p.sizes, p.copies) is None
    got = _error(lambda: execute_schedule(sched, config))
    want = _error(lambda: run_spmd(config, schedule_program, sched))
    assert got == want
    assert got[0] is DeadlockError
    assert "rank 1: blocked-recv (recv from 3)" in got[1]


def test_run_is_repeatable_on_one_schedule():
    # The compiled program is cached on the schedule; a second run (and a
    # different machine speed) reuses them.
    sched = recursive_exchange(16, 512)
    fast = MachineConfig(16)
    slow = MachineConfig(16, CM5Params(memcpy_bandwidth=1e6))
    first = execute_schedule(sched, fast, seed=5).sim
    assert observables(execute_schedule(sched, fast, seed=5).sim) == observables(
        first
    )
    assert observables(execute_schedule(sched, slow, seed=5).sim) == observables(
        run_spmd(slow, schedule_program, sched, seed=5)
    )


@needs_kernel
@pytest.mark.parametrize(
    "corrupt",
    ["starts-past-ops", "peer-out-of-range", "self-peer", "size-index"],
)
def test_malformed_flat_program_is_rejected(corrupt):
    """The kernel checks every index it will follow before running."""
    ops, starts, sizes, copies = compiled_program(pairwise_exchange(4, 64))[:4]
    ops, starts = ops.copy(), starts.copy()
    if corrupt == "starts-past-ops":
        starts[1] = len(ops) + 5
    elif corrupt == "peer-out-of-range":
        ops[0, 1] = 4
    elif corrupt == "self-peer":
        ops[starts[2], 1] = 2
    else:
        ops[ops[:, 0] == 0, 3] = len(sizes)
    with pytest.raises(ValueError, match="schedule program"):
        Engine(MachineConfig(4))._run_compiled(ops, starts, sizes, copies)
