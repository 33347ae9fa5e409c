"""Tests for the optimal edge-coloring scheduler (extension baseline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    coloring_schedule,
    execute_schedule,
    greedy_schedule,
    optimal_step_count,
    paper_pattern_P,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step


class TestOptimalBound:
    def test_complete_exchange_bound(self):
        pat = CommPattern.complete_exchange(8, 16)
        assert optimal_step_count(pat) == 7

    def test_broadcast_pattern_bound(self):
        pat = CommPattern.broadcast(8, 0, 16)
        assert optimal_step_count(pat) == 7  # root sends 7 messages

    def test_skewed_receiver(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[1, 0] = m[2, 0] = m[3, 0] = 8
        assert optimal_step_count(CommPattern(m)) == 3


class TestColoring:
    def test_paper_pattern_hits_bound(self):
        P = paper_pattern_P()
        s = coloring_schedule(P)
        assert s.nsteps == optimal_step_count(P) == 6
        validate_schedule(s, P)
        assert_one_receive_per_rank_per_step(s)

    def test_complete_exchange_optimal(self):
        pat = CommPattern.complete_exchange(16, 8)
        s = coloring_schedule(pat)
        assert s.nsteps == 15
        validate_schedule(s, pat)
        assert_one_receive_per_rank_per_step(s)

    def test_never_beaten_by_greedy(self):
        for seed in range(10):
            pat = CommPattern.synthetic(16, 0.4, 64, seed=seed)
            assert coloring_schedule(pat).nsteps <= greedy_schedule(pat).nsteps

    def test_executes_on_the_simulator(self):
        pat = CommPattern.synthetic(8, 0.5, 256, seed=3)
        cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
        res = execute_schedule(coloring_schedule(pat), cfg)
        assert res.sim.message_count == pat.n_operations

    @given(
        n=st.sampled_from([4, 8, 12, 16]),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_optimal_and_valid(self, n, density, seed):
        rng = np.random.default_rng(seed)
        m = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    m[i, j] = int(rng.integers(1, 512))
        if m.sum() == 0:
            m[0, 1] = 8
        pat = CommPattern(m)
        s = coloring_schedule(pat)
        validate_schedule(s, pat)
        assert_one_receive_per_rank_per_step(s)
        assert s.nsteps == optimal_step_count(pat)

    def test_empty_pattern_via_zero_colors(self):
        # CommPattern requires a zero diagonal + non-negative entries; an
        # all-zero pattern means no messages, zero steps.
        pat = CommPattern(np.zeros((4, 4), dtype=np.int64))
        s = coloring_schedule(pat)
        assert s.nsteps == 0
