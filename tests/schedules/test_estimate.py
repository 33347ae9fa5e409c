"""Tests for the simulation-free schedule cost estimator."""

import numpy as np
import pytest

from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    balanced_exchange,
    estimate_schedule_time,
    estimate_step_times,
    execute_schedule,
    greedy_schedule,
    linear_exchange,
    linear_schedule,
    paper_pattern_P,
    pairwise_exchange,
    recursive_exchange,
    Schedule,
)


@pytest.fixture(scope="module")
def params():
    return CM5Params(routing_jitter=0.0)


@pytest.fixture(scope="module")
def cfg32(params):
    return MachineConfig(32, params)


class TestAgainstSimulator:
    @pytest.mark.parametrize(
        "build,nbytes",
        [
            (pairwise_exchange, 256),
            (pairwise_exchange, 1920),
            (balanced_exchange, 512),
            (recursive_exchange, 512),
            (linear_exchange, 256),
        ],
    )
    def test_within_factor_three(self, cfg32, build, nbytes):
        sched = build(32, nbytes)
        est = estimate_schedule_time(sched, cfg32)
        sim = execute_schedule(sched, cfg32).time
        assert sim / 3 <= est <= sim * 3

    def test_ranks_lex_far_worse(self, cfg32):
        lex = estimate_schedule_time(linear_exchange(32, 256), cfg32)
        pex = estimate_schedule_time(pairwise_exchange(32, 256), cfg32)
        assert lex > 3 * pex

    def test_ranks_irregular_algorithms_like_the_simulator(self, params):
        cfg = MachineConfig(8, params)
        P = paper_pattern_P().scaled(256)
        est_ls = estimate_schedule_time(linear_schedule(P), cfg)
        est_gs = estimate_schedule_time(greedy_schedule(P), cfg)
        assert est_gs < est_ls


class TestProperties:
    def test_monotone_in_message_size(self, cfg32):
        small = estimate_schedule_time(pairwise_exchange(32, 64), cfg32)
        large = estimate_schedule_time(pairwise_exchange(32, 4096), cfg32)
        assert large > small

    def test_empty_schedule_is_free(self, cfg32):
        empty = np.zeros((6, 0), dtype=np.int64)
        assert estimate_schedule_time(Schedule(32, empty, "SHIFT0"), cfg32) == 0.0

    def test_zero_step_schedule_costs_a_float(self, cfg32):
        # A bare sum of no step times would be the int 0.
        empty = np.zeros((6, 0), dtype=np.int64)
        for sched in (Schedule(32, empty), Schedule(32, empty, nsteps=3)):
            cost = estimate_schedule_time(sched, cfg32)
            assert type(cost) is float and cost.hex() == (0.0).hex()

    def test_additive_over_steps(self, cfg32):
        sched = pairwise_exchange(32, 256)
        total = estimate_schedule_time(sched, cfg32)
        parts = estimate_step_times(sched.columns, sched.nsteps, cfg32)
        assert parts.shape == (31,)
        assert total == sum(parts.tolist())

    def test_rex_charges_reshuffle(self, params):
        cheap = MachineConfig(32, params.scaled(memcpy_bandwidth=1e9))
        dear = MachineConfig(32, params.scaled(memcpy_bandwidth=2e6))
        sched = recursive_exchange(32, 1024)
        assert estimate_schedule_time(sched, dear) > estimate_schedule_time(
            sched, cheap
        )

    def test_size_mismatch_rejected(self, cfg32):
        with pytest.raises(ValueError):
            estimate_schedule_time(pairwise_exchange(8, 64), cfg32)

    def test_memcpy_charged_once_per_endpoint(self, params):
        """Regression: the pack memcpy belongs to the sender and the
        unpack to the receiver; the old code added pack+unpack to *both*
        endpoints, double-charging every store-and-forward step."""
        from repro.schedules import Schedule
        from repro.machine.params import wire_bytes

        cfg = MachineConfig(8, params)
        step = Schedule(8, [[0], [0], [1], [64], [4096], [1024]])
        wire = wire_bytes(64) / params.level_bandwidth(1)
        sender = params.zero_byte_latency + wire + params.memcpy_time(4096)
        receiver = params.zero_byte_latency + wire + params.memcpy_time(1024)
        assert estimate_step_times(step.columns, 1, cfg)[0] == pytest.approx(
            max(sender, receiver)
        )

    def test_serialized_receiver_cheaper_than_naive_sum(self, params):
        """The refinement: a drained receiver overlaps sender setup, so
        the LEX estimate must be below N-1 full message latencies per
        step."""
        cfg = MachineConfig(8, params)
        sched = linear_exchange(8, 0)
        est = estimate_schedule_time(sched, cfg)
        naive = 8 * 7 * params.zero_byte_latency
        assert est < naive
