"""Tests for the shift schedule and the sync/async LEX programs."""

import pytest

from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    execute_schedule,
    linear_exchange_time,
    shift_schedule,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step


@pytest.fixture(scope="module")
def cfg8():
    return MachineConfig(8, CM5Params(routing_jitter=0.0))


class TestShift:
    def test_plus_one_ring(self):
        s = shift_schedule(8, 1, 64)
        assert s.nsteps == 1
        assert {(t.src, t.dst) for t in s.steps[0]} == {
            (i, (i + 1) % 8) for i in range(8)
        }
        validate_schedule(s)
        assert_one_receive_per_rank_per_step(s)

    def test_negative_offset(self):
        s = shift_schedule(8, -1, 64)
        assert {(t.src, t.dst) for t in s.steps[0]} == {
            (i, (i - 1) % 8) for i in range(8)
        }

    def test_offset_wraps(self):
        assert shift_schedule(8, 9, 64).steps == shift_schedule(8, 1, 64).steps

    def test_zero_offset_empty(self):
        assert shift_schedule(8, 0, 64).nsteps == 0
        assert shift_schedule(8, 16, 64).nsteps == 0

    def test_executes_without_deadlock(self, cfg8):
        # A full synchronous ring is the classic deadlock trap; the
        # executor's ordering rule must break it.
        res = execute_schedule(shift_schedule(8, 1, 512), cfg8)
        assert res.sim.message_count == 8

    def test_half_shift_is_pairwise(self, cfg8):
        # offset N/2 pairs ranks up; both directions form exchanges.
        res = execute_schedule(shift_schedule(8, 4, 128), cfg8)
        assert res.sim.message_count == 8

    def test_bad_args(self):
        with pytest.raises(ValueError):
            shift_schedule(1, 1, 8)
        with pytest.raises(ValueError):
            shift_schedule(8, 1, -1)


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
