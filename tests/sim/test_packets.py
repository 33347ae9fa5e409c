"""Packet-level simulation and its agreement with the fluid model."""

import pytest

from repro.machine import CM5Params, FluidNetwork, MachineConfig, fat_tree_for
from repro.machine.params import wire_bytes
from repro.sim.packets import PacketMessage, PacketNetwork, simulate_packets


@pytest.fixture(scope="module")
def cfg16():
    return MachineConfig(16, CM5Params(routing_jitter=0.0))


def fluid_time(cfg, src, dst, payload):
    net = FluidNetwork(fat_tree_for(cfg))
    net.begin_flow(net.now, "f", src, dst, payload)
    return net.earliest_completion()


class TestPacketBasics:
    def test_packet_count(self):
        assert PacketMessage(0, 1, 0).n_packets == 1
        assert PacketMessage(0, 1, 16).n_packets == 1
        assert PacketMessage(0, 1, 17).n_packets == 2
        assert PacketMessage(0, 1, 1600).n_packets == 100

    def test_single_packet_latency(self, cfg16):
        (t,) = simulate_packets(cfg16, [PacketMessage(0, 1, 0)])
        # Two hops: 2 x (1 us service + 0.5 us switch latency).
        assert t == pytest.approx(2 * (20 / 20e6 + 0.5e-6))

    def test_longer_routes_take_longer(self, cfg16):
        (local,) = simulate_packets(cfg16, [PacketMessage(0, 1, 256)])
        (remote,) = simulate_packets(cfg16, [PacketMessage(0, 15, 256)])
        assert remote > local

    def test_self_message_rejected(self, cfg16):
        with pytest.raises(ValueError):
            simulate_packets(cfg16, [PacketMessage(3, 3, 8)])


class TestFluidAgreement:
    @pytest.mark.parametrize("payload", [256, 1024, 8192])
    @pytest.mark.parametrize("dst", [1, 4, 15])
    def test_single_message_within_15_percent(self, cfg16, payload, dst):
        """One uncontended message: the fluid model's time must match
        the packet simulation closely (pipelining plus pacing dominate)."""
        packet = simulate_packets(cfg16, [PacketMessage(0, dst, payload)])[0]
        fluid = fluid_time(cfg16, 0, dst, payload)
        assert abs(packet - fluid) / fluid < 0.15

    def test_shared_uplink_contention_matches(self):
        """Four remote flows out of one cluster: both models pin the
        per-flow rate near 10 MB/s (the cluster uplink's fair quarter)."""
        params = CM5Params(routing_jitter=0.0, switch_contention=0.0)
        cfg = MachineConfig(16, params)
        payload = 16000
        msgs = [PacketMessage(i, i + 4, payload) for i in range(4)]
        packet_times = simulate_packets(cfg, msgs)

        net = FluidNetwork(fat_tree_for(cfg))
        for i in range(4):
            net.begin_flow(net.now, i, i, i + 4, payload)
        # Drain the fluid system completely.
        last = 0.0
        while net.active_count:
            t = net.earliest_completion()
            net.pop_completed_keys(t)
            last = t
        assert abs(max(packet_times) - last) / last < 0.2

    def test_throughput_long_message(self, cfg16):
        """A long intra-cluster message streams at ~20 MB/s in both."""
        payload = 64000
        (t,) = simulate_packets(cfg16, [PacketMessage(0, 1, payload)])
        rate = wire_bytes(payload) / t
        assert rate == pytest.approx(20e6, rel=0.1)


class TestOrderingAndQueueing:
    def test_fifo_link_serializes(self, cfg16):
        """Two simultaneous messages into the same receiver share its
        leaf down-link: together they take about twice one alone."""
        one = simulate_packets(cfg16, [PacketMessage(0, 2, 4000)])[0]
        both = simulate_packets(
            cfg16,
            [PacketMessage(0, 2, 4000), PacketMessage(1, 2, 4000)],
        )
        assert max(both) > 1.6 * one

    def test_staggered_start_respected(self, cfg16):
        late = simulate_packets(
            cfg16, [PacketMessage(0, 1, 256, start=1.0)]
        )[0]
        assert late > 1.0
