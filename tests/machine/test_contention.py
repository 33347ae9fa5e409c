"""Unit tests for the fluid-flow contention network."""

import math
import sys
import weakref

import numpy as np
import pytest

from repro.machine import (
    CM5Params,
    FluidNetwork,
    MachineConfig,
    NetworkStallError,
    fat_tree_for,
)
from repro.machine.params import wire_bytes
from tests.machine.test_hotpath_equivalence import ReferenceFluidNetwork


def make_net(nprocs=16, **overrides):
    params = CM5Params(routing_jitter=0.0, **overrides)
    return FluidNetwork(fat_tree_for(MachineConfig(nprocs, params)))


class TestSingleFlow:
    def test_intra_cluster_rate(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)
        assert net.snapshot_rates()["f"] == pytest.approx(20e6)

    def test_remote_flow_capped_at_level_bandwidth(self):
        net = make_net()
        net.add_flow("f", 0, 4, 1600)
        assert net.snapshot_rates()["f"] == pytest.approx(10e6)

    def test_completion_time(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)  # 2000 wire bytes at 20 MB/s
        t = net.earliest_completion()
        assert t == pytest.approx(2000 / 20e6)

    def test_pop_completed(self):
        net = make_net()
        net.add_flow("f", 0, 1, 160)
        t = net.earliest_completion()
        done = net.pop_completed(t)
        assert [f.key for f in done] == ["f"]
        assert net.active_count == 0


class TestSharing:
    def test_two_flows_share_a_saturated_uplink(self):
        # With contention disabled, 4 remote flows out of one cluster
        # split the 40 MB/s cluster uplink evenly.
        net = make_net(switch_contention=0.0)
        for i in range(4):
            net.add_flow(i, i, i + 4, 16000)
        rates = net.snapshot_rates()
        for i in range(4):
            assert rates[i] == pytest.approx(10e6)

    def test_contention_penalty_degrades_shared_links(self):
        clean = make_net(switch_contention=0.0)
        dirty = make_net(switch_contention=0.3)
        for net in (clean, dirty):
            for i in range(4):
                net.add_flow(i, i, i + 4, 16000)
        assert max(dirty.snapshot_rates().values()) < min(
            clean.snapshot_rates().values()
        )

    def test_contention_cap_bounds_the_penalty(self):
        capped = make_net(switch_contention=10.0, contention_cap=2.0)
        for i in range(4):
            capped.add_flow(i, i, i + 4, 16000)
        # Penalty factor is capped at 2: 40 MB/s / 2 / 4 flows = 5 MB/s.
        for r in capped.snapshot_rates().values():
            assert r == pytest.approx(5e6)

    def test_disjoint_flows_do_not_interact(self):
        net = make_net()
        net.add_flow("a", 0, 1, 16000)
        net.add_flow("b", 8, 9, 16000)
        rates = net.snapshot_rates()
        assert rates["a"] == pytest.approx(20e6)
        assert rates["b"] == pytest.approx(20e6)


class TestDynamics:
    def test_time_cannot_go_backwards(self):
        net = make_net()
        net.advance_to(1.0)
        with pytest.raises(ValueError):
            net.advance_to(0.5)

    def test_duplicate_key_rejected(self):
        net = make_net()
        net.add_flow("f", 0, 1, 16)
        with pytest.raises(ValueError):
            net.add_flow("f", 2, 3, 16)

    def test_duplicate_key_rejected_before_any_drain(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)
        with pytest.raises(ValueError, match="duplicate flow key: 'f'"):
            net.begin_flow(50e-6, "f", 2, 3, 16)
        assert net.now == 0.0 and net.active_count == 1

    def test_begin_flow_is_advance_then_add(self):
        # Draining a dirty network reallocates first, in the observer's
        # view, before the new flow joins.
        fused, stepwise = make_net(), make_net()
        seen = []
        fused.observer = lambda now, rates: seen.append(now)
        for net in (fused, stepwise):
            net.add_flow("a", 0, 1, 1600)
        fused.begin_flow(50e-6, "b", 2, 3, 800)
        stepwise.advance_to(50e-6)
        stepwise.add_flow("b", 2, 3, 800)
        assert fused.snapshot_remaining() == stepwise.snapshot_remaining()
        assert fused.now == stepwise.now == 50e-6
        assert seen == [0.0]

    def test_rates_rebalance_when_flow_departs(self):
        net = make_net(switch_contention=0.0)
        net.add_flow("short", 0, 4, 160)
        net.add_flow("long", 1, 5, 160000)
        t = net.earliest_completion()
        done = net.pop_completed(t)
        assert [f.key for f in done] == ["short"]
        # The survivor now runs at its full level cap.
        assert net.snapshot_rates()["long"] == pytest.approx(10e6)

    def test_progress_accounting(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)  # 2000 wire bytes @ 20 MB/s = 100 us
        net.advance_to(50e-6)
        t = net.earliest_completion()
        assert t == pytest.approx(100e-6)

    def test_reset(self):
        net = make_net()
        net.add_flow("f", 0, 1, 16)
        net.reset()
        assert net.active_count == 0
        assert net.now == 0.0


class TestOvershootClamp:
    """advance_to past a completion must clamp remaining bytes at zero."""

    def test_deliberate_overshoot_clamps_remaining_at_zero(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)  # 2000 wire bytes @ 20 MB/s = 100 us
        net.advance_to(250e-6)  # 2.5x past the completion instant
        assert net.snapshot_remaining()["f"] == 0.0

    def test_overshot_flow_pops_with_zero_remaining(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)
        done = net.pop_completed(250e-6)
        assert [f.key for f in done] == ["f"]
        assert done[0].wire_remaining == 0.0

    def test_overshoot_does_not_corrupt_survivors(self):
        net = make_net(switch_contention=0.0)
        net.add_flow("short", 0, 4, 160)
        net.add_flow("long", 1, 5, 160000)
        t_short = net.earliest_completion()
        net.pop_completed(t_short * 1.5)  # overshoot the short flow only
        remaining = net.snapshot_remaining()
        assert "short" not in remaining
        assert remaining["long"] > 0.0

    def test_overshot_flow_reports_completion_now(self):
        net = make_net()
        net.add_flow("f", 0, 1, 1600)
        net.advance_to(1.0)
        assert net.earliest_completion() == 1.0


class TestStallDetection:
    """Zero-rate unfinished flows raise a structured NetworkStallError."""

    def _stalled_net(self):
        # White-box: a healthy max-min allocation is strictly positive,
        # so force the zero-rate state the guard exists to surface.
        net = make_net()
        net.add_flow("k1", 0, 1, 1600)
        net.snapshot_rates()  # recompute, clearing the dirty flag
        net._rate[0] = 0.0
        net.store.next = None  # drop the memoized completion
        return net

    def test_stall_raises_with_named_triples(self):
        net = self._stalled_net()
        with pytest.raises(NetworkStallError) as excinfo:
            net.earliest_completion()
        assert excinfo.value.stalled == [(0, 1, "k1")]
        assert "k1" in str(excinfo.value)

    def test_stall_error_is_a_runtime_error(self):
        # Callers that caught RuntimeError before the structured subclass
        # existed keep working.
        net = self._stalled_net()
        with pytest.raises(RuntimeError):
            net.earliest_completion()

    def test_done_flow_wins_over_stalled_flow(self):
        # A finished flow and a zero-rate flow at once: completion is
        # reported (and poppable) before the stall is raised.
        net = make_net(switch_contention=0.0)
        net.add_flow("done", 0, 1, 160)
        net.add_flow("stuck", 8, 9, 16000)
        t = net.earliest_completion()
        net.advance_to(t)
        net._rate[:2] = 0.0
        net.store.next = None  # drop the memoized completion
        assert net.earliest_completion() == net.now
        popped = net.pop_completed(net.now)
        assert [f.key for f in popped] == ["done"]


class TestJitter:
    def test_jitter_inflates_wire_volume(self):
        params = CM5Params(routing_jitter=2.0)
        tree = fat_tree_for(MachineConfig(16, params))
        base = wire_bytes(256)
        durations = []
        for s in range(64):
            net = FluidNetwork(tree, seed=s)
            net.add_flow("f", 0, 1, 256)
            durations.append(net.earliest_completion())
        floor = base / 20e6
        assert min(durations) >= floor - 1e-12
        assert max(durations) > floor * 1.2  # some messages are unlucky

    def test_jitter_is_deterministic_per_seed(self):
        params = CM5Params(routing_jitter=1.0)
        tree = fat_tree_for(MachineConfig(16, params))
        a = FluidNetwork(tree, seed=3)
        b = FluidNetwork(tree, seed=3)
        a.add_flow("f", 0, 9, 512)
        b.add_flow("f", 0, 9, 512)
        assert a.earliest_completion() == b.earliest_completion()

    def test_relative_jitter_shrinks_for_long_messages(self):
        params = CM5Params(routing_jitter=2.0)
        tree = fat_tree_for(MachineConfig(16, params))

        def spread(payload):
            outs = []
            for s in range(40):
                net = FluidNetwork(tree, seed=s)
                net.add_flow("f", 0, 1, payload)
                outs.append(net.earliest_completion())
            lo, hi = min(outs), max(outs)
            return (hi - lo) / lo

        assert spread(64) > spread(65536)

    def test_jitter_stream_crosses_blocks_and_survives_reset(self):
        # More flows than one pre-drawn block of normals, then reset()
        # and a replay: every flow's jitter must match a fresh network
        # and per-flow scalar draws, so a stale block would show.
        seed = 11
        tree = fat_tree_for(MachineConfig(32, CM5Params(routing_jitter=1.0)))
        flows = [
            (i, i % 32, (i % 32 + 1 + i % 31) % 32, 64 * (1 + i % 5))
            for i in range(300)
        ]

        def run(net):
            for key, src, dst, payload in flows:
                net.add_flow(key, src, dst, payload)
            if isinstance(net, ReferenceFluidNetwork):
                remaining = {k: f.wire_remaining for k, f in net._flows.items()}
            else:
                remaining = net.snapshot_remaining()
            events = []
            while net.active_count:
                t = net.earliest_completion()
                events.append((t, [f.key for f in net.pop_completed(t)]))
            return remaining, events

        rng = np.random.default_rng(seed)
        scalar_wire = {}
        for key, _, _, payload in flows:
            wire = float(wire_bytes(payload))
            z = abs(rng.standard_normal())
            scalar_wire[key] = wire * (1.0 + 1.0 * z / math.sqrt(wire / 20.0))

        net = FluidNetwork(tree, seed=seed)
        first = run(net)
        net.reset()
        replay = run(net)
        fresh = run(FluidNetwork(tree, seed=seed))
        reference = run(ReferenceFluidNetwork(tree, seed=seed))
        assert first[0] == scalar_wire
        assert replay == first
        assert fresh == first
        assert reference == first


class _Key:
    """A weakref-able flow key with identity equality."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"_Key({self.name})"


class TestKeyCompaction:
    """Retiring flows moves key references without leaking any."""

    def test_retire_is_refcount_safe_against_pop_completed(self):
        net = make_net(switch_contention=0.0)
        twin = make_net(switch_contention=0.0)
        live, base, refs, order, batch_sizes = {}, {}, [], [], set()

        def add_wave(names):
            for i in names:
                key = _Key(i)
                src = i % 16
                dst = (src + 1 + i % 15) % 16
                payload = 160 * (1 + (i * 7) % 4)
                net.add_flow(key, src, dst, payload)
                twin.add_flow(key, src, dst, payload)
                live[i] = key
                refs.append(weakref.ref(key))
            del key
            base.update({i: sys.getrefcount(live[i]) for i in names})

        def retire_once():
            t = net.earliest_completion()
            assert twin.earliest_completion() == t
            got = net.pop_completed_keys(t)
            want = [f.key for f in twin.pop_completed(t)]
            assert got == want
            batch_sizes.add(len(got))
            order.extend(done.name for done in got)
            for done in got:
                del live[done.name]

        def survivors_unchanged():
            now = {i: sys.getrefcount(live[i]) for i in live}
            assert now == {i: base[i] for i in live}

        add_wave(range(24))
        while net.active_count:
            retire_once()
            survivors_unchanged()
            if len(order) >= 8 and len(base) == 24:
                add_wave(range(24, 40))  # refill vacated slots mid-run
                survivors_unchanged()
        assert twin.active_count == 0
        assert sorted(order) == list(range(40)) and order != sorted(order)
        assert 1 in batch_sizes and max(batch_sizes) > 1
        assert [r for r in refs if r() is not None] == []
