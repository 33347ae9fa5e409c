"""Unit tests for CM5Params, MachineConfig, and packetization."""

import math

import numpy as np
import pytest

from repro.machine import (
    CM5Params,
    DEFAULT_PARAMS,
    MachineConfig,
    PACKET_BYTES,
    PACKET_PAYLOAD_BYTES,
    wire_bytes,
)


class TestWireBytes:
    def test_zero_payload_costs_one_packet(self):
        assert wire_bytes(0) == PACKET_BYTES

    def test_exact_packet_boundary(self):
        assert wire_bytes(PACKET_PAYLOAD_BYTES) == PACKET_BYTES
        assert wire_bytes(2 * PACKET_PAYLOAD_BYTES) == 2 * PACKET_BYTES

    def test_partial_packet_rounds_up(self):
        assert wire_bytes(1) == PACKET_BYTES
        assert wire_bytes(PACKET_PAYLOAD_BYTES + 1) == 2 * PACKET_BYTES

    def test_inflation_is_25_percent(self):
        # 16 payload bytes ride in 20 wire bytes.
        assert wire_bytes(1600) == 2000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wire_bytes(-1)


class TestCM5Params:
    def test_zero_byte_latency_is_88us(self):
        assert DEFAULT_PARAMS.zero_byte_latency == pytest.approx(88e-6)

    def test_level_bandwidths_follow_paper_profile(self):
        p = DEFAULT_PARAMS
        assert p.level_bandwidth(1) == 20e6
        assert p.level_bandwidth(2) == 10e6
        assert p.level_bandwidth(3) == 5e6
        assert p.level_bandwidth(7) == 5e6  # pinned at the guarantee

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.level_bandwidth(0)

    def test_transfer_time_includes_overheads(self):
        p = DEFAULT_PARAMS
        t = p.transfer_time(0, 1)
        assert t == pytest.approx(p.zero_byte_latency + 20 / 20e6)

    def test_transfer_time_monotone_in_size(self):
        p = DEFAULT_PARAMS
        times = [p.transfer_time(s, 3) for s in (0, 64, 256, 1024)]
        assert times == sorted(times)

    def test_transfer_time_monotone_in_level(self):
        p = DEFAULT_PARAMS
        times = [p.transfer_time(1024, l) for l in (1, 2, 3)]
        assert times == sorted(times)

    def test_memcpy_and_compute_reject_negative(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.memcpy_time(-1)
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.compute_time(-1.0)

    def test_bandwidth_profile_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            CM5Params(bw_level1=5e6, bw_level2=10e6)

    def test_contention_cap_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            CM5Params(contention_cap=0.5)

    def test_scaled_returns_modified_copy(self):
        p2 = DEFAULT_PARAMS.scaled(memcpy_bandwidth=1e6)
        assert p2.memcpy_bandwidth == 1e6
        assert DEFAULT_PARAMS.memcpy_bandwidth != 1e6
        assert p2.send_overhead == DEFAULT_PARAMS.send_overhead

    def test_system_broadcast_time_grows_with_payload(self):
        p = DEFAULT_PARAMS
        assert p.system_broadcast_time(4096, 32) > p.system_broadcast_time(64, 32)

    def test_system_broadcast_nearly_machine_size_independent(self):
        # Figure 11's flat curve: going 32 -> 256 nodes adds only the
        # shallow tree-depth term.
        p = DEFAULT_PARAMS
        t32 = p.system_broadcast_time(1024, 32)
        t256 = p.system_broadcast_time(1024, 256)
        assert t256 - t32 < 20e-6


class TestMachineConfig:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            MachineConfig(12)
        with pytest.raises(ValueError):
            MachineConfig(1)

    @pytest.mark.parametrize("n,levels", [(4, 1), (16, 2), (32, 3), (64, 3), (256, 4)])
    def test_levels(self, n, levels):
        assert MachineConfig(n).levels == levels

    def test_route_level_intra_cluster(self):
        cfg = MachineConfig(32)
        assert cfg.route_level(0, 1) == 1
        assert cfg.route_level(0, 3) == 1

    def test_route_level_neighbor_cluster(self):
        cfg = MachineConfig(32)
        assert cfg.route_level(0, 4) == 2
        assert cfg.route_level(3, 15) == 2

    def test_route_level_across_root(self):
        cfg = MachineConfig(32)
        assert cfg.route_level(0, 16) == 3
        assert cfg.route_level(0, 31) == 3

    def test_route_level_symmetric(self):
        cfg = MachineConfig(64)
        for a, b in [(0, 5), (7, 63), (12, 13), (31, 32)]:
            assert cfg.route_level(a, b) == cfg.route_level(b, a)

    def test_is_global(self):
        cfg = MachineConfig(16)
        assert not cfg.is_global(0, 3)
        assert cfg.is_global(0, 4)

    @pytest.mark.parametrize("nprocs", [2, 4, 8, 64, 256])
    def test_route_levels_is_route_level_over_arrays(self, nprocs):
        cfg = MachineConfig(nprocs)
        src, dst = np.divmod(np.arange(nprocs * nprocs), nprocs)
        expect = [cfg.route_level(a, b) for a, b in zip(src.tolist(), dst.tolist())]
        assert cfg.route_levels(src, dst).tolist() == expect

    def test_rank_bounds_checked(self):
        cfg = MachineConfig(8)
        with pytest.raises(ValueError):
            cfg.route_level(0, 8)
        with pytest.raises(ValueError):
            cfg.cluster_of(-1)

    def test_pairs_count(self):
        cfg = MachineConfig(8)
        assert len(cfg.pairs()) == 8 * 7
