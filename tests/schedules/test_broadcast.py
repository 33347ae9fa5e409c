"""LIB / REB schedule generators (Section 3.6, Figure 9)."""

import pytest

from repro.schedules import linear_broadcast, recursive_broadcast

from .checks import steps_of, transfers


class TestLIB:
    def test_step_count(self):
        assert linear_broadcast(8, 0, 64).nsteps == 7

    def test_all_sends_from_root(self):
        s = linear_broadcast(8, 3, 64)
        for step in steps_of(s):
            (t,) = step.transfers
            assert t.src == 3

    def test_reaches_everyone_once(self):
        s = linear_broadcast(8, 0, 64)
        dests = [t.dst for _, t in transfers(s)]
        assert sorted(dests) == [1, 2, 3, 4, 5, 6, 7]

    def test_group_restriction(self):
        s = linear_broadcast(16, 4, 64, group=[4, 5, 6, 7])
        assert s.nsteps == 3
        assert {t.dst for _, t in transfers(s)} == {5, 6, 7}


class TestREB:
    def test_paper_figure9_wave(self):
        """Root 0, 8 procs: 0->4; then 0->2, 4->6; then odd neighbours."""
        s = recursive_broadcast(8, 0, 64)
        assert s.nsteps == 3
        step_pairs = [
            {(t.src, t.dst) for t in step} for step in steps_of(s)
        ]
        assert step_pairs[0] == {(0, 4)}
        assert step_pairs[1] == {(0, 2), (4, 6)}
        assert step_pairs[2] == {(0, 1), (2, 3), (4, 5), (6, 7)}

    def test_message_count_and_reach(self):
        s = recursive_broadcast(16, 0, 64)
        assert s.n_messages == 15
        assert {t.dst for _, t in transfers(s)} == set(range(1, 16))

    def test_senders_already_have_the_message(self):
        """Store-and-forward sanity: nobody forwards before receiving."""
        s = recursive_broadcast(32, 0, 64)
        have = {0}
        for step in steps_of(s):
            for t in step:
                assert t.src in have, f"{t.src} forwards before receiving"
            have |= {t.dst for t in step}
        assert have == set(range(32))

    @pytest.mark.parametrize("root", [0, 5, 15])
    def test_arbitrary_root_by_rotation(self, root):
        s = recursive_broadcast(16, root, 64)
        have = {root}
        for step in steps_of(s):
            for t in step:
                assert t.src in have
            have |= {t.dst for t in step}
        assert have == set(range(16))

    def test_selective_group(self):
        group = [1, 3, 5, 7]
        s = recursive_broadcast(8, 3, 64, group=group)
        assert s.nsteps == 2
        members = {3}
        for step in steps_of(s):
            for t in step:
                assert t.src in members and t.dst in set(group)
            members |= {t.dst for t in step}
        assert members == set(group)

    def test_invalid_groups(self):
        with pytest.raises(ValueError, match="power of two"):
            recursive_broadcast(8, 0, 64, group=[0, 1, 2])
        with pytest.raises(ValueError, match="root"):
            recursive_broadcast(8, 0, 64, group=[1, 2, 3, 4])
        with pytest.raises(ValueError, match="duplicate"):
            linear_broadcast(8, 1, 64, group=[1, 1, 2, 3])
        with pytest.raises(ValueError, match="outside"):
            linear_broadcast(8, 1, 64, group=[1, 99])
