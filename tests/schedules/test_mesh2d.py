"""Tests for processor-mesh communication utilities."""

import pytest

from repro.machine import CM5Params, MachineConfig
from repro.schedules import execute_schedule, validate_schedule
from repro.schedules.mesh2d import ProcessorMesh

from .checks import assert_one_receive_per_rank_per_step, transfers


@pytest.fixture(scope="module")
def mesh44():
    return ProcessorMesh(4, 4)


@pytest.fixture(scope="module")
def cfg16():
    return MachineConfig(16, CM5Params(routing_jitter=0.0))


class TestCoordinates:
    def test_row_major_mapping(self, mesh44):
        assert mesh44.rank_of(0, 0) == 0
        assert mesh44.rank_of(1, 0) == 4
        assert mesh44.rank_of(3, 3) == 15

    def test_roundtrip(self, mesh44):
        for r in range(16):
            i, j = mesh44.coords_of(r)
            assert mesh44.rank_of(i, j) == r

    def test_lines(self, mesh44):
        assert mesh44.row_ranks(2) == [8, 9, 10, 11]
        assert mesh44.col_ranks(1) == [1, 5, 9, 13]

    def test_bounds(self, mesh44):
        with pytest.raises(ValueError):
            mesh44.rank_of(4, 0)
        with pytest.raises(ValueError):
            mesh44.coords_of(16)
        with pytest.raises(ValueError):
            ProcessorMesh(0, 4)


class TestLineBroadcasts:
    def test_row_broadcast_reaches_only_the_row(self, mesh44):
        sched = mesh44.row_broadcast(2, root_col=0, nbytes=256)
        touched = {t.src for _, t in transfers(sched)} | {
            t.dst for _, t in transfers(sched)
        }
        assert touched == set(mesh44.row_ranks(2))
        assert sched.n_messages == 3  # lg-tree over 4 members

    def test_col_broadcast_runs(self, mesh44, cfg16):
        sched = mesh44.col_broadcast(1, root_row=3, nbytes=512)
        res = execute_schedule(sched, cfg16)
        assert res.sim.message_count == 3

    def test_rows_faster_than_columns_on_the_fat_tree(self, mesh44, cfg16):
        """Row-major placement keeps a row inside one cluster of four;
        a column spans four clusters — locality made visible."""
        row = execute_schedule(mesh44.row_broadcast(0, 0, 4096), cfg16).time
        col = execute_schedule(mesh44.col_broadcast(0, 0, 4096), cfg16).time
        assert row < col


class TestLineExchanges:
    def test_row_exchange_structure(self, mesh44):
        sched = mesh44.row_exchange(64)
        validate_schedule(sched)
        assert_one_receive_per_rank_per_step(sched)
        assert sched.nsteps == 3
        # 4 rows x (4*3) directed messages each.
        assert sched.n_messages == 4 * 12

    def test_exchange_stays_within_lines(self, mesh44):
        sched = mesh44.col_exchange(64)
        for _, t in transfers(sched):
            _, cs = mesh44.coords_of(t.src)
            _, cd = mesh44.coords_of(t.dst)
            assert cs == cd

    def test_concurrent_lines_share_steps(self, mesh44, cfg16):
        """All four rows exchange in the same 3 steps, not 12."""
        res = execute_schedule(mesh44.row_exchange(256), cfg16)
        assert res.sim.message_count == 48

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            ProcessorMesh(4, 3).row_exchange(8)


class TestGridTranspose:
    def test_permutation_pairs(self, mesh44):
        sched = mesh44.transpose_permutation(128)
        validate_schedule(sched)
        assert_one_receive_per_rank_per_step(sched)
        assert sched.nsteps == 1
        assert sched.n_messages == 16 - 4  # diagonal stays put

    def test_executes(self, mesh44, cfg16):
        res = execute_schedule(mesh44.transpose_permutation(1024), cfg16)
        assert res.sim.message_count == 12

    def test_square_required(self):
        with pytest.raises(ValueError):
            ProcessorMesh(2, 8).transpose_permutation(8)
