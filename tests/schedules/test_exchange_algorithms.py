"""LEX / PEX / REX / BEX against the paper's Tables 1-4 and invariants."""

import pytest

from repro.schedules import (
    CommPattern,
    balanced_exchange,
    bex_partner,
    linear_exchange,
    pairwise_exchange,
    recursive_exchange,
    rex_partner,
    verify_block_routing,
    validate_schedule,
)

from .checks import assert_one_receive_per_rank_per_step, steps_of, transfers


class TestLEX:
    def test_paper_table1_structure(self):
        """Table 1: step i has processor i receiving from everyone else."""
        s = linear_exchange(8, 1)
        assert s.nsteps == 8
        for i, step in enumerate(steps_of(s)):
            assert all(t.dst == i for t in step)
            assert sorted(t.src for t in step) == [j for j in range(8) if j != i]

    def test_covers_complete_exchange(self):
        s = linear_exchange(8, 64)
        validate_schedule(s, CommPattern.complete_exchange(8, 64))

    def test_zero_byte_messages_kept(self):
        s = linear_exchange(8, 0)
        assert s.n_messages == 8 * 7

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            linear_exchange(1, 8)
        with pytest.raises(ValueError):
            linear_exchange(8, -1)


class TestPEX:
    def test_paper_table2(self):
        """Table 2: step j pairs i with i XOR j."""
        s = pairwise_exchange(8, 1)
        assert s.nsteps == 7
        expected_step1 = {(0, 1), (2, 3), (4, 5), (6, 7)}
        pairs1 = {t.pair for t in steps_of(s)[0]}
        assert pairs1 == expected_step1
        # Step 4 (j=4): partner across the machine half.
        pairs4 = {t.pair for t in steps_of(s)[3]}
        assert pairs4 == {(0, 4), (1, 5), (2, 6), (3, 7)}

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_every_pair_meets_exactly_once(self, n):
        s = pairwise_exchange(n, 16)
        validate_schedule(s, CommPattern.complete_exchange(n, 16))
        assert_one_receive_per_rank_per_step(s)

    def test_each_step_is_perfect_matching(self):
        s = pairwise_exchange(16, 8)
        for step in steps_of(s):
            assert {t.src for t in step} | {t.dst for t in step} == set(range(16))
            exchanges, singles = step.exchanges_and_singles()
            assert not singles
            assert len(exchanges) == 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            pairwise_exchange(12, 8)

    def test_zero_bytes_kept(self):
        assert pairwise_exchange(8, 0).n_messages == 56


class TestREX:
    def test_paper_table3_pairs(self):
        """Table 3: distances N/2, N/4, ... (OCR of the paper garbles two
        entries; the figure's algorithm gives the canonical pairing)."""
        s = recursive_exchange(8, 1)
        assert s.nsteps == 3
        assert {t.pair for t in steps_of(s)[0]} == {(0, 4), (1, 5), (2, 6), (3, 7)}
        assert {t.pair for t in steps_of(s)[1]} == {(0, 2), (1, 3), (4, 6), (5, 7)}
        assert {t.pair for t in steps_of(s)[2]} == {(0, 1), (2, 3), (4, 5), (6, 7)}

    def test_message_size_is_n_times_half_machine(self):
        s = recursive_exchange(8, 100)
        for _, t in transfers(s):
            assert t.nbytes == 100 * 4
            assert t.pack_bytes == t.unpack_bytes == 400

    def test_partner_function_is_involution(self):
        for n in (4, 8, 16, 64):
            steps = n.bit_length() - 1
            for i in range(steps):
                for r in range(n):
                    assert rex_partner(rex_partner(r, i, n), i, n) == r

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 128])
    def test_block_routing_delivers_everything(self, n):
        verify_block_routing(n)

    def test_lower_rank_sends_first_ordering(self):
        from repro.schedules import LOWER_SEND_FIRST

        assert recursive_exchange(8, 8).exchange_order == LOWER_SEND_FIRST

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            recursive_exchange(6, 8)


class TestBEX:
    def test_partner_is_involution_without_fixed_points(self):
        for n in (8, 16, 32):
            for j in range(1, n):
                for r in range(n):
                    p = bex_partner(r, j, n)
                    assert p != r
                    assert bex_partner(p, j, n) == r

    def test_figure4_step1_pairs(self):
        """Virtual renumbering: step 1 pairs (0,7),(1,2),(3,4),(5,6)."""
        s = balanced_exchange(8, 1)
        assert {t.pair for t in steps_of(s)[0]} == {(0, 7), (1, 2), (3, 4), (5, 6)}

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_covers_complete_exchange(self, n):
        s = balanced_exchange(n, 32)
        validate_schedule(s, CommPattern.complete_exchange(n, 32))
        assert_one_receive_per_rank_per_step(s)

    def test_same_step_count_as_pex(self):
        assert balanced_exchange(16, 8).nsteps == pairwise_exchange(16, 8).nsteps

    def test_global_exchange_count_matches_section34(self):
        """Section 3.4: 3N/4 * N/2 exchange pairs cross cluster boundaries."""
        from repro.machine import MachineConfig
        from repro.schedules import analyze

        n = 16
        cfg = MachineConfig(n)
        for build in (pairwise_exchange, balanced_exchange):
            m = analyze(build(n, 8), cfg)
            # Transfers are directed: each global pair counts twice.
            assert m.n_global_total == 2 * (3 * n // 4) * (n // 2)

    def test_bex_spreads_global_traffic(self):
        """The paper's core claim: BEX distributes global exchanges
        across steps while PEX concentrates them."""
        from repro.machine import MachineConfig
        from repro.schedules import analyze

        n = 32
        cfg = MachineConfig(n)
        pex = analyze(pairwise_exchange(n, 8), cfg)
        bex = analyze(balanced_exchange(n, 8), cfg)
        assert bex.global_balance < pex.global_balance * 0.6
        # PEX has steps with zero global traffic and steps that are all
        # global; BEX never fully concentrates.
        assert min(pex.global_counts) == 0
        assert max(pex.global_counts) == n
        assert min(bex.global_counts) > 0
