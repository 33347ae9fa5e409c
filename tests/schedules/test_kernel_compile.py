"""The kernel's schedule compile against the NumPy reference.

With the kernel loaded, :func:`~repro.schedules.executor.compiled_program`
compiles through ``_fastfill.compile_program`` and never runs the NumPy
:func:`~repro.schedules.executor._compile`, which stays the reference
and the path without the kernel.  The two must return the same
:class:`~repro.schedules.executor.Program`, field by field: on drawn
steps (one-sided Figure 2 flips, so uncertified programs, included), on
schedules with no transfers, and on every builder under both exchange
orders (REX's pack/unpack delays included).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.faults import FaultPlan, NodeStraggler
from repro.machine import MachineConfig
from repro.machine._fastfill import kernel
from repro.schedules import (
    CommPattern,
    Schedule,
    balanced_exchange,
    coloring_schedule,
    execute_schedule,
    linear_broadcast,
    linear_exchange,
    lint_schedule,
    local_schedule,
    pairwise_exchange,
    recursive_broadcast,
    recursive_exchange,
    repair_schedule,
    schedule_irregular,
)
from repro.schedules import executor
from repro.schedules.irregular import IRREGULAR_ALGORITHMS
from repro.schedules.schedule import LOWER_RECV_FIRST, LOWER_SEND_FIRST

from .checks import Transfer, schedule_of
from .test_lint_oracles import step_sets

pytestmark = pytest.mark.skipif(kernel() is None, reason="compiled kernel not loaded")

ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)


def assert_twin(schedule):
    """The kernel's program is the reference's, field by field."""
    got = executor._kernel_compile(kernel(), schedule)
    want = executor._compile(schedule)
    assert got.ops.dtype == want.ops.dtype == np.int64
    assert got.ops.shape == want.ops.shape
    assert got.ops.tolist() == want.ops.tolist()
    assert got.starts.dtype == want.starts.dtype
    assert got.starts.tolist() == want.starts.tolist()
    assert (got.sizes, got.copies) == (want.sizes, want.copies)
    assert all(type(v) is int for v in got.sizes + got.copies)
    assert type(got.live) is bool and got.live == want.live
    return got


def reordered(schedule, order):
    return Schedule(
        schedule.nprocs, schedule.columns, schedule.name, order, schedule.nsteps
    )


@settings(max_examples=400, deadline=None)
@given(sched=step_sets())
def test_drawn_steps_compile_alike(sched):
    assert_twin(sched)


def test_a_one_sided_flip_is_uncertified_alike():
    steps = [[Transfer(0, 1, 64), Transfer(1, 0, 64), Transfer(2, 1, 64)]]
    for order, live in ((LOWER_RECV_FIRST, False), (LOWER_SEND_FIRST, True)):
        assert assert_twin(schedule_of(3, steps, "one-sided", order)).live is live


@pytest.mark.parametrize("order", ORDERS)
def test_schedules_without_transfers_compile_alike(order):
    empty = np.zeros((6, 0), dtype=np.int64)
    for sched in (
        Schedule(2, empty, "none", order),
        Schedule(8, empty, "idle", order, nsteps=2),
        Schedule(16, empty, "columns", order, nsteps=4),
    ):
        program = assert_twin(sched)
        assert program.ops.shape == (0, 4)
        assert program.starts.tolist() == [0] * (sched.nprocs + 1)
        assert (program.sizes, program.copies, program.live) == ([], [], True)


def every_builder(n):
    pattern = CommPattern.synthetic(n, 0.5, 128, seed=n)
    straggler = FaultPlan((NodeStraggler(1, 4.0),))
    built = [
        linear_exchange(n, 96),
        pairwise_exchange(n, 96),
        balanced_exchange(n, 96),
        recursive_exchange(n, 96),
        linear_broadcast(n, 0, 64),
        recursive_broadcast(n, 3, 64),
        coloring_schedule(pattern),
        *(schedule_irregular(pattern, name) for name in IRREGULAR_ALGORITHMS),
        local_schedule(pattern),
        repair_schedule(
            schedule_irregular(pattern, "balanced"), straggler, MachineConfig(n)
        ),
    ]
    return built


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [8, 16])
def test_every_builder_compiles_alike(n, order):
    built = every_builder(n)
    assert any(sched.columns[4:].any() for sched in built)  # REX's copies
    for sched in built:
        assert_twin(reordered(sched, order))


@pytest.mark.parametrize("seed", range(4))
def test_drawn_irregular_schedules_compile_alike(seed):
    # N=64 linear steps drain up to 63 senders into one rank: groups
    # long enough for the radix sort, as are the payload sizes, too
    # varied to share a byte.
    rng = np.random.default_rng(seed)
    for n in (32, 64):
        matrix = rng.integers(0, 1 << 20, size=(n, n)) * (rng.random((n, n)) < 0.6)
        np.fill_diagonal(matrix, 0)
        pattern = CommPattern(matrix)
        for name in ("linear", "pairwise", "balanced", "greedy"):
            for order in ORDERS:
                assert_twin(reordered(schedule_irregular(pattern, name), order))


def test_compiled_program_never_runs_the_numpy_compile(monkeypatch):
    def refuse(schedule):
        raise AssertionError(f"NumPy compile of {schedule.name}")

    monkeypatch.setattr(executor, "_compile", refuse)
    pattern = CommPattern.synthetic(32, 0.5, 256, seed=2)
    for name in ("linear", "pairwise", "balanced", "greedy"):
        sched = schedule_irregular(pattern, name)
        assert lint_schedule(sched, pattern).ok
        execute_schedule(sched, MachineConfig(32))
        execute_schedule(sched, MachineConfig(32), trace=True)
    assert executor.compiled_program(recursive_exchange(8, 64)).ops.size


@pytest.mark.parametrize(
    "columns, nprocs, error",
    [
        (np.zeros((6, 2), dtype=np.int64).T, 4, "C-contiguous"),
        (np.zeros((6, 2), dtype=np.int32), 4, "int64"),
        (np.zeros((5, 2), dtype=np.int64), 4, r"\(6, M\)"),
        (np.zeros(12, dtype=np.int64), 4, r"\(6, M\)"),
        (np.zeros((6, 0), dtype=np.int64), 1, "nprocs"),
        (np.zeros((6, 0), dtype=np.int64), 16385, "nprocs"),
        (np.array([[0], [0], [0], [8], [0], [0]]), 4, "transfer 0"),
        (np.array([[0], [0], [4], [8], [0], [0]]), 4, "transfer 0"),
        (np.array([[0], [0], [1], [-1], [0], [0]]), 4, "transfer 0"),
        (np.array([[0], [0], [1], [8], [0], [-1]]), 4, "transfer 0"),
        (np.array([[1, 0], [0, 1], [1, 2], [8, 8], [0, 0], [0, 0]]), 4, "transfer 1"),
        (np.array([[0, 0], [0, 0], [1, 1], [8, 9], [0, 0], [0, 0]]), 4, "transfer"),
    ],
)
def test_kernel_rejects_columns_no_schedule_has(columns, nprocs, error):
    # The schedule gate admits none of these; the kernel checks them
    # itself before it follows a rank or a step.
    with pytest.raises((ValueError, BufferError), match=error):
        kernel().compile_program(columns, nprocs, True)
