"""Tests for shift patterns and the sync/async LEX programs."""

import numpy as np
import pytest

from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    coloring_schedule,
    execute_schedule,
    greedy_schedule,
    linear_exchange_time,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step, shift_pattern, steps_of


@pytest.fixture(scope="module")
def cfg8():
    return MachineConfig(8, CM5Params(routing_jitter=0.0))


def pairs(schedule):
    return set(zip(*schedule.columns[1:3].tolist()))


class TestShift:
    """The cyclic shift, Section 3's third regular pattern, scheduled by
    the irregular builders: a permutation, so one step."""

    def test_plus_one_ring(self):
        pattern = shift_pattern(8, 1, 64)
        for s in (greedy_schedule(pattern), coloring_schedule(pattern)):
            assert s.nsteps == 1
            assert pairs(s) == {(i, (i + 1) % 8) for i in range(8)}
            assert validate_schedule(s, pattern).ok
            assert_one_receive_per_rank_per_step(s)

    def test_negative_offset(self):
        s = greedy_schedule(shift_pattern(8, -1, 64))
        assert s.nsteps == 1
        assert pairs(s) == {(i, (i - 1) % 8) for i in range(8)}

    def test_offset_wraps(self):
        assert shift_pattern(8, 9, 64) == shift_pattern(8, 1, 64)
        assert steps_of(greedy_schedule(shift_pattern(8, -7, 64))) == steps_of(
            greedy_schedule(shift_pattern(8, 1, 64))
        )

    def test_zero_offset_empty(self):
        for offset in (0, 16):
            pattern = shift_pattern(8, offset, 64)
            assert pattern.n_operations == 0
            assert greedy_schedule(pattern).nsteps == 0
            assert coloring_schedule(pattern).nsteps == 0

    def test_executes_without_deadlock(self, cfg8):
        # A full synchronous ring is the classic deadlock trap; the
        # executor's ordering rule must break it.
        res = execute_schedule(greedy_schedule(shift_pattern(8, 1, 512)), cfg8)
        assert res.sim.message_count == 8

    def test_half_shift_is_pairwise(self, cfg8):
        # offset N/2 pairs ranks up; both directions form exchanges.
        s = greedy_schedule(shift_pattern(8, 4, 128))
        assert s.render_table().splitlines()[1] == "  Step 1: 0<->4  1<->5  2<->6  3<->7"
        res = execute_schedule(s, cfg8)
        assert res.sim.message_count == 8

    def test_bad_args(self):
        with pytest.raises(ValueError):
            shift_pattern(1, 1, 8)
        with pytest.raises(ValueError):
            shift_pattern(8, 1, -1)
        with pytest.raises(ValueError):
            CommPattern(np.eye(4, dtype=np.int64))


class TestAsyncLinearExchange:
    def test_async_beats_sync(self):
        sync = linear_exchange_time(16, 256, asynchronous=False)
        async_ = linear_exchange_time(16, 256, asynchronous=True)
        assert async_ < sync

    def test_advantage_grows_with_machine_size(self):
        r8 = linear_exchange_time(8, 256, False) / linear_exchange_time(8, 256, True)
        r32 = linear_exchange_time(32, 256, False) / linear_exchange_time(
            32, 256, True
        )
        assert r32 > r8 > 1.0

    def test_async_still_delivers_all_messages(self):
        from repro.cmmd import run_spmd
        from repro.machine import MachineConfig
        from repro.schedules.asynchronous import linear_exchange_async_program

        cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
        res = run_spmd(cfg, linear_exchange_async_program, 128)
        assert res.message_count == 8 * 7

    def test_async_does_not_reach_pairwise(self):
        """Receivers still drain serially: async LEX improves but stays
        behind PEX — the reason the paper's conclusion still holds."""
        from repro.schedules import pairwise_exchange

        cfg = MachineConfig(32, CM5Params(routing_jitter=0.0))
        pex = execute_schedule(pairwise_exchange(32, 256), cfg).time
        lex_async = linear_exchange_time(32, 256, asynchronous=True)
        assert lex_async > pex
