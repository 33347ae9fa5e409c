"""LS / PS / BS / GS against the paper's Tables 7-10 (pattern 'P')."""

import numpy as np
import pytest

from repro.schedules import (
    CommPattern,
    IRREGULAR_ALGORITHMS,
    algorithm_names,
    balanced_schedule,
    coloring_schedule,
    greedy_schedule,
    linear_schedule,
    paper_pattern_P,
    pairwise_schedule,
    schedule_irregular,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step, steps_of


@pytest.fixture(scope="module")
def P():
    return paper_pattern_P()


def pairs_of(step):
    exchanges, singles = step.exchanges_and_singles()
    ex = {(lo.src, hi.src) for lo, hi in exchanges}
    sg = {(t.src, t.dst) for t in singles}
    return ex, sg


class TestLinearScheduling:
    def test_paper_table7_step_count(self, P):
        assert linear_schedule(P).nsteps == 8

    def test_step_i_targets_processor_i(self, P):
        s = linear_schedule(P)
        for i, step in enumerate(steps_of(s)):
            assert {t.dst for t in step} == {i}

    def test_only_pattern_messages_scheduled(self, P):
        s = linear_schedule(P)
        validate_schedule(s, P)

    def test_empty_receivers_dropped(self):
        # A pattern where processor 2 receives nothing: its step vanishes.
        m = [[0, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 0]]
        s = linear_schedule(CommPattern(m))
        assert s.nsteps == 4 - 0  # all four receive here
        m2 = [[0, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 0], [0, 0, 4, 0]]
        s2 = linear_schedule(CommPattern(m2))
        # Processor 3 sends to 2? No: row 3 sends to 2. Receiver 2 gets one.
        assert s2.nsteps == 3  # receivers 0, 1, 2 only


class TestPairwiseScheduling:
    def test_paper_table8_step_count(self, P):
        """The paper: 'The entire communication is done in 6 steps.'"""
        assert pairwise_schedule(P).nsteps == 6

    def test_first_step_matches_table8(self, P):
        ex, sg = pairs_of(steps_of(pairwise_schedule(P))[0])
        assert ex == {(0, 1), (2, 3), (4, 5), (6, 7)}
        assert sg == set()

    def test_coverage_and_structure(self, P):
        s = pairwise_schedule(P)
        validate_schedule(s, P)
        assert_one_receive_per_rank_per_step(s)

    def test_pairs_follow_xor(self, P):
        for step in steps_of(pairwise_schedule(P)):
            # Within a step all pairs share the same XOR value.
            xors = {t.src ^ t.dst for t in step}
            assert len(xors) == 1


class TestBalancedScheduling:
    def test_paper_table9_step_count(self, P):
        """The paper: 'The entire communication is done in 7 steps.'"""
        assert balanced_schedule(P).nsteps == 7

    def test_coverage_and_structure(self, P):
        s = balanced_schedule(P)
        validate_schedule(s, P)
        assert_one_receive_per_rank_per_step(s)

    def test_pairs_follow_virtual_xor(self, P):
        n = P.nprocs
        for step in steps_of(balanced_schedule(P)):
            xors = {
                ((t.src + 1) % n) ^ ((t.dst + 1) % n) for t in step
            }
            assert len(xors) == 1


class TestGreedyScheduling:
    def test_paper_table10_full_reproduction(self, P):
        """Every step of Table 10, entry for entry."""
        s = greedy_schedule(P)
        assert s.nsteps == 6
        expected = [
            ({(0, 1), (2, 3), (4, 5), (6, 7)}, set()),
            ({(0, 3), (1, 2), (4, 7), (5, 6)}, set()),
            ({(1, 4), (3, 6)}, {(0, 5), (7, 0)}),
            ({(0, 6), (1, 5), (3, 4)}, set()),
            (set(), {(1, 6), (3, 5), (4, 2)}),
            ({(1, 7)}, {(6, 2)}),
        ]
        for step, (want_ex, want_sg) in zip(steps_of(s), expected):
            ex, sg = pairs_of(step)
            assert ex == want_ex
            assert sg == want_sg

    def test_coverage_and_structure(self, P):
        s = greedy_schedule(P)
        validate_schedule(s, P)
        assert_one_receive_per_rank_per_step(s)

    def test_complete_exchange_reduces_to_pairwise_pairs(self):
        """Section 4.4: on a complete exchange GS = PEX's pairing."""
        from repro.schedules import pairwise_schedule as ps

        pat = CommPattern.complete_exchange(8, 32)
        gs = greedy_schedule(pat)
        pex = ps(pat)
        assert gs.nsteps == pex.nsteps
        for a, b in zip(steps_of(gs), steps_of(pex)):
            assert {t.pair for t in a} == {t.pair for t in b}

    def test_greedy_uses_fewer_steps_when_sparse(self):
        pat = CommPattern.synthetic(16, 0.15, 64, seed=4)
        gs = greedy_schedule(pat)
        ls = linear_schedule(pat)
        assert gs.nsteps < ls.nsteps

    def test_mandatory_exchange_rule(self, P):
        """When both directions are pending, GS never emits a lone send
        that strands the reverse message (the Table 10 step-5 subtlety:
        7->1 must wait for step 6's 1<->7 exchange)."""
        s = greedy_schedule(P)
        seen = set()
        for idx, step in enumerate(steps_of(s)):
            directed = {(t.src, t.dst) for t in step}
            for t in step:
                rev = (t.dst, t.src)
                still_pending = P[t.dst, t.src] > 0 and rev not in seen
                if still_pending:
                    assert rev in directed, (
                        f"step {idx + 1}: {t.src}->{t.dst} scheduled alone "
                        f"while {t.dst}->{t.src} is still pending"
                    )
            seen |= directed


class TestRegistry:
    def test_names_in_paper_order(self):
        assert algorithm_names() == [
            "linear",
            "pairwise",
            "balanced",
            "greedy",
            "local",
        ]

    def test_dispatch(self, P):
        for name in algorithm_names():
            s = schedule_irregular(P, name)
            validate_schedule(s, P)

    def test_unknown_name(self, P):
        with pytest.raises(ValueError, match="unknown algorithm"):
            schedule_irregular(P, "quantum")

    def test_registry_matches_names(self):
        assert set(IRREGULAR_ALGORITHMS) == set(algorithm_names())

    def test_names_derived_from_registry_order(self):
        # algorithm_names() must be the registry itself, not a copy that
        # can drift when an algorithm is added or reordered.
        assert algorithm_names() == list(IRREGULAR_ALGORITHMS)


class TestGreedyOrderExtension:
    def test_default_order_reproduces_table10(self, P):
        from repro.schedules.greedy import greedy_schedule as gs

        assert steps_of(gs(P)) == steps_of(gs(P, order="lowest"))

    def test_largest_first_still_covers(self, P):
        from repro.schedules.greedy import greedy_schedule as gs

        skewed = P.scaled(64)
        sched = gs(skewed, order="largest_first")
        validate_schedule(sched, skewed)
        assert_one_receive_per_rank_per_step(sched)

    def test_largest_first_on_uniform_equals_lowest_pairs(self, P):
        """Uniform sizes: the size key ties everywhere, so the stable
        fallback gives exactly the paper's schedule."""
        from repro.schedules.greedy import greedy_schedule as gs

        a = gs(P, order="lowest")
        b = gs(P, order="largest_first")
        assert steps_of(a) == steps_of(b)

    def test_largest_first_prefers_big_destinations(self):
        from repro.schedules.greedy import greedy_schedule as gs

        m = [[0, 8, 0, 4096], [0, 0, 8, 0], [8, 0, 0, 0], [0, 0, 0, 0]]
        sched = gs(CommPattern(m), order="largest_first")
        # Rank 0's big message to 3 goes out in step 1.
        first_step = {(t.src, t.dst) for t in steps_of(sched)[0]}
        assert (0, 3) in first_step

    def test_unknown_order_rejected(self, P):
        from repro.schedules.greedy import greedy_schedule as gs

        with pytest.raises(ValueError):
            gs(P, order="random")


# ----------------------------------------------------------------------
# Line patterns on a processor mesh: complete exchanges within every row
# (or column) of a row-major ``rows x cols`` mesh, all lines at once,
# and the mesh transpose, a permutation.
# ----------------------------------------------------------------------
def mesh_ranks(rows, cols):
    return np.arange(rows * cols).reshape(rows, cols)


def line_exchange_pattern(lines, nbytes):
    n = lines.size
    m = np.zeros((n, n), dtype=np.int64)
    for line in lines:
        m[np.ix_(line, line)] = nbytes
    np.fill_diagonal(m, 0)
    return CommPattern(m)


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (2, 2), (4, 2), (4, 4), (8, 8), (2, 16)])
def test_line_exchanges_stay_within_lines_and_share_steps(shape):
    ranks = mesh_ranks(*shape)
    line_of = {}
    for lines in (ranks, ranks.T):
        for k, line in enumerate(lines):
            line_of.update({int(r): k for r in line})
        pattern = line_exchange_pattern(lines, 64)
        length = lines.shape[1]
        for build in (pairwise_schedule, balanced_schedule, greedy_schedule, coloring_schedule):
            sched = build(pattern)
            assert validate_schedule(sched, pattern).ok
            src, dst = sched.columns[1:3].tolist()
            assert all(line_of[a] == line_of[b] for a, b in zip(src, dst))
            assert sched.n_messages == lines.shape[0] * length * (length - 1)
        # Every line runs its exchange in the same steps: with power-of-two
        # lines, PS and the optimal coloring take as many steps as one line.
        assert pairwise_schedule(pattern).nsteps == length - 1
        assert coloring_schedule(pattern).nsteps == length - 1
    if shape[0] == shape[1]:
        flat = ranks.ravel()
        m = np.zeros((ranks.size, ranks.size), dtype=np.int64)
        m[flat, ranks.T.ravel()] = 80
        np.fill_diagonal(m, 0)
        transpose = CommPattern(m)
        for build in (greedy_schedule, coloring_schedule):
            sched = build(transpose)
            assert sched.nsteps == 1 and sched.n_messages == ranks.size - shape[0]
            assert_one_receive_per_rank_per_step(sched)
