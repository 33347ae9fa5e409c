"""Tests for the makespan lower bounds (repro.schedules.bound)."""

import numpy as np
import pytest

from repro.machine import CM5Params, MachineConfig
from repro.machine.params import wire_bytes
from repro.analysis.conformance import backend_times
from repro.schedules import (
    CommPattern,
    bisection_bound,
    endpoint_bound,
    makespan_lower_bound,
    schedule_irregular,
)
from repro.schedules.coloring import coloring_schedule


@pytest.fixture(scope="module")
def params():
    return CM5Params(routing_jitter=0.0)


def _pattern_one_message(nbytes=100):
    m = np.zeros((4, 4), dtype=np.int64)
    m[0, 1] = nbytes
    return CommPattern(m)


class TestEndpointBound:
    def test_single_message_charges_receiver(self, params):
        pat = _pattern_one_message(100)
        cfg = MachineConfig(4, params)
        value, rank = endpoint_bound(pat, cfg)
        # Receiver pays more software than the sender (55 vs 30 us), so
        # the bound binds on rank 1 at recv_overhead + wire drain time.
        assert rank == 1
        expected = params.recv_overhead + wire_bytes(100) / params.bw_level1
        assert value == pytest.approx(expected)

    def test_zero_byte_message_still_costs_a_packet(self, params):
        pat = _pattern_one_message(1)
        cfg = MachineConfig(4, params)
        value, _ = endpoint_bound(pat, cfg)
        assert value >= params.recv_overhead + wire_bytes(1) / params.bw_level1

    def test_empty_pattern_is_zero(self, params):
        pat = CommPattern(np.zeros((4, 4), dtype=np.int64))
        cfg = MachineConfig(4, params)
        value, _ = endpoint_bound(pat, cfg)
        assert value == 0.0

    def test_wrong_machine_size_raises(self, params):
        pat = _pattern_one_message()
        with pytest.raises(ValueError, match="4 procs"):
            endpoint_bound(pat, MachineConfig(8, params))

    def test_scaling_bytes_raises_bound(self, params):
        cfg = MachineConfig(8, params)
        small = CommPattern.synthetic(8, 0.5, 64, seed=3)
        big = small.scaled(16)
        assert endpoint_bound(big, cfg)[0] > endpoint_bound(small, cfg)[0]


class TestBisectionBound:
    def test_empty_pattern_has_no_cut(self, params):
        pat = CommPattern(np.zeros((4, 4), dtype=np.int64))
        value, cut = bisection_bound(pat, MachineConfig(4, params))
        assert value == 0.0 and cut is None

    def test_single_local_message_loads_leaf_links(self, params):
        pat = _pattern_one_message(100)
        value, cut = bisection_bound(pat, MachineConfig(4, params))
        # 0 -> 1 stays inside one cluster: leaf links at bw_level1.
        assert value == pytest.approx(wire_bytes(100) / params.bw_level1)
        assert cut is not None and cut[1] == 1

    def test_cross_cluster_message_reaches_level_two(self, params):
        m = np.zeros((16, 16), dtype=np.int64)
        m[0, 4] = 1024
        value, cut = bisection_bound(CommPattern(m), MachineConfig(16, params))
        w = wire_bytes(1024)
        # Level-1 links run at 20 MB/s, level-2 aggregate at 4 * 10 MB/s;
        # the leaf links bind.
        assert value == pytest.approx(w / params.bw_level1)
        assert cut[1] == 1

    def test_complete_exchange_binds_on_root(self, params):
        pat = CommPattern.complete_exchange(32, 1024)
        value, cut = bisection_bound(pat, MachineConfig(32, params))
        assert value > 0
        # The CM-5 bandwidth taper makes a top-level link the bottleneck.
        assert cut[1] == 3

    def test_deterministic_tie_break(self, params):
        pat = CommPattern.complete_exchange(16, 256)
        a = bisection_bound(pat, MachineConfig(16, params))
        b = bisection_bound(pat, MachineConfig(16, params))
        assert a == b


class TestCombinedBound:
    def test_breakdown_is_consistent(self, params):
        pat = CommPattern.synthetic(32, 0.5, 256, seed=42)
        bound = makespan_lower_bound(pat, MachineConfig(32, params))
        assert bound.seconds == max(bound.endpoint, bound.bisection)
        assert bound.binding in ("endpoint", "bisection")
        assert getattr(bound, bound.binding) == bound.seconds
        assert "bound" in bound.describe()

    @pytest.mark.parametrize(
        "nprocs, density, nbytes, binding",
        [
            (8, 0.5, 256, "endpoint"),
            (16, 0.5, 16384, "bisection"),
            (32, 1.0, 16384, "bisection"),
        ],
    )
    def test_seconds_is_max_of_families(
        self, params, nprocs, density, nbytes, binding
    ):
        """Fixed routing: nothing tighter than the max of the two
        families, and the breakdown is each family's own result."""
        pat = CommPattern.synthetic(nprocs, density, nbytes, seed=3)
        cfg = MachineConfig(nprocs, params)
        ep, rank = endpoint_bound(pat, cfg)
        bi, cut = bisection_bound(pat, cfg)
        bound = makespan_lower_bound(pat, cfg)
        assert bound.seconds == max(ep, bi)
        assert (bound.endpoint, bound.endpoint_rank) == (ep, rank)
        assert (bound.bisection, bound.bisection_cut) == (bi, cut)
        assert bound.binding == binding

    def test_half_to_half_binds_on_a_cut(self, params):
        # Every rank of the low half sends 1 MiB to every rank of the
        # high half: the links out of the low half carry it all.
        m = np.zeros((8, 8), dtype=np.int64)
        m[:4, 4:] = 1 << 20
        bound = makespan_lower_bound(CommPattern(m), MachineConfig(8, params))
        assert bound.binding == "bisection"
        assert bound.seconds == bound.bisection > bound.endpoint

    def test_empty_pattern(self, params):
        pat = CommPattern(np.zeros((4, 4), dtype=np.int64))
        bound = makespan_lower_bound(pat, MachineConfig(4, params))
        assert bound.seconds == 0.0
        assert bound.bisection_cut is None

    @pytest.mark.parametrize(
        "alg", ["linear", "pairwise", "balanced", "greedy", "local"]
    )
    def test_every_backend_exceeds_bound(self, params, alg):
        """Soundness on a concrete pattern: no backend's measured
        makespan may undercut the bound, for any scheduler."""
        pat = CommPattern.synthetic(8, 0.5, 256, seed=1)
        cfg = MachineConfig(8, params)
        bound = makespan_lower_bound(pat, cfg)
        times = backend_times(schedule_irregular(pat, alg), cfg, pat)
        for backend, t in times.items():
            assert t >= bound.seconds * (1 - 1e-9), (backend, t, bound)

    def test_coloring_exceeds_bound_too(self, params):
        pat = CommPattern.synthetic(8, 0.5, 256, seed=1)
        cfg = MachineConfig(8, params)
        bound = makespan_lower_bound(pat, cfg)
        times = backend_times(coloring_schedule(pat), cfg, pat)
        assert all(t >= bound.seconds * (1 - 1e-9) for t in times.values())
