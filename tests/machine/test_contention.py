"""Unit tests for the fluid-flow contention network."""

import math
import sys
import weakref
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.machine import (
    CM5Params,
    FluidNetwork,
    MachineConfig,
    NetworkStallError,
    _fastfill,
    fat_tree_for,
)
from repro.machine.params import wire_bytes
from repro.sim.engine import Engine
from repro.sim.events import event_queue
from tests.machine.test_hotpath_equivalence import (
    EngineFacingReference,
    ReferenceFluidNetwork,
)


def make_net(nprocs=16, **overrides):
    params = CM5Params(routing_jitter=0.0, **overrides)
    return FluidNetwork(fat_tree_for(MachineConfig(nprocs, params)))


class DrainDriver:
    """The engine's side of the network protocol, for a bare network.

    ``_schedule(t, fn, *args)`` queues a call (flow starts among
    them); :meth:`run` drains them through the engine's drain loop: on
    the compiled arm–check–retire cycle when ``net`` is on the kernel
    (its store as ``_native_net``), else through the engine's own
    Python arm and check, borrowed below.  Every retired flow is logged
    as ``(now, key)`` and handed to ``on_complete``.
    """

    _net_changed = Engine._net_changed
    _arm_network_event = Engine._arm_network_event
    _net_check = Engine._net_check

    def __init__(self, net):
        self.net = net
        self.now = 0.0
        self._net_state = net.store
        self._native_net = net.native_store()
        self._pop_completed_keys = net.pop_completed_keys
        self.queue = event_queue()
        self._schedule = self.queue.push
        self.completions = []
        self.on_complete = None

    def _flow_complete(self, key):
        self.completions.append((self.now, key))
        if self.on_complete is not None:
            self.on_complete(key)

    def run(self):
        self.queue.run(self)
        return self.completions


class TestSingleFlow:
    def test_intra_cluster_rate(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 1600)
        assert net.snapshot_rates()["f"] == pytest.approx(20e6)

    def test_remote_flow_capped_at_level_bandwidth(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 4, 1600)
        assert net.snapshot_rates()["f"] == pytest.approx(10e6)

    def test_completion_time(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 1600)  # 2000 wire bytes at 20 MB/s
        t = net.earliest_completion()
        assert t == pytest.approx(2000 / 20e6)

    def test_pop_completed(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 160)
        t = net.earliest_completion()
        assert net.pop_completed_keys(t) == ["f"]
        assert net.active_count == 0


class TestSharing:
    def test_two_flows_share_a_saturated_uplink(self):
        # With contention disabled, 4 remote flows out of one cluster
        # split the 40 MB/s cluster uplink evenly.
        net = make_net(switch_contention=0.0)
        for i in range(4):
            net.begin_flow(net.now, i, i, i + 4, 16000)
        rates = net.snapshot_rates()
        for i in range(4):
            assert rates[i] == pytest.approx(10e6)

    def test_contention_penalty_degrades_shared_links(self):
        clean = make_net(switch_contention=0.0)
        dirty = make_net(switch_contention=0.3)
        for net in (clean, dirty):
            for i in range(4):
                net.begin_flow(net.now, i, i, i + 4, 16000)
        assert max(dirty.snapshot_rates().values()) < min(
            clean.snapshot_rates().values()
        )

    def test_contention_cap_bounds_the_penalty(self):
        capped = make_net(switch_contention=10.0, contention_cap=2.0)
        for i in range(4):
            capped.begin_flow(capped.now, i, i, i + 4, 16000)
        # Penalty factor is capped at 2: 40 MB/s / 2 / 4 flows = 5 MB/s.
        for r in capped.snapshot_rates().values():
            assert r == pytest.approx(5e6)

    def test_disjoint_flows_do_not_interact(self):
        net = make_net()
        net.begin_flow(net.now, "a", 0, 1, 16000)
        net.begin_flow(net.now, "b", 8, 9, 16000)
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
        net.begin_flow(net.now, "f", 0, 1, 16)
        with pytest.raises(ValueError):
            net.begin_flow(net.now, "f", 2, 3, 16)

    def test_duplicate_key_rejected_before_any_drain(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 1600)
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
            net.begin_flow(net.now, "a", 0, 1, 1600)
        fused.begin_flow(50e-6, "b", 2, 3, 800)
        stepwise.advance_to(50e-6)
        stepwise.begin_flow(stepwise.now, "b", 2, 3, 800)
        assert fused.snapshot_remaining() == stepwise.snapshot_remaining()
        assert fused.now == stepwise.now == 50e-6
        assert seen == [0.0]

    @pytest.mark.skipif(_fastfill.kernel() is None, reason="kernel not loaded")
    def test_later_begin_on_a_dirty_store_reallocates_in_the_kernel(self):
        # The kernel's begin drains a dirty store itself: one
        # reallocation, counted on the store and shown to the observer,
        # with the NumPy reference's rates and drained bytes.
        fast = make_net()
        with mock.patch.object(_fastfill, "kernel", return_value=None):
            slow = make_net()
        seen = []
        for net in (fast, slow):
            series = []
            net.observer = lambda now, _, net=net, series=series: series.append(
                (now, net._rate[: net.active_count].tobytes())
            )
            net.begin_flow(0.0, "a", 0, 4, 1600)
            net.begin_flow(0.0, "b", 1, 5, 1600)
            net.begin_flow(50e-6, "c", 2, 3, 800)
            seen.append(series)
        assert fast.store.allocations == 1
        assert len(seen[0]) == 1 and seen[0] == seen[1]
        assert fast.snapshot_remaining() == slow.snapshot_remaining()
        assert fast.snapshot_rates() == slow.snapshot_rates()

    def test_rates_rebalance_when_flow_departs(self):
        net = make_net(switch_contention=0.0)
        net.begin_flow(net.now, "short", 0, 4, 160)
        net.begin_flow(net.now, "long", 1, 5, 160000)
        t = net.earliest_completion()
        assert net.pop_completed_keys(t) == ["short"]
        # The survivor now runs at its full level cap.
        assert net.snapshot_rates()["long"] == pytest.approx(10e6)

    def test_progress_accounting(self):
        net = make_net()
        # 2000 wire bytes @ 20 MB/s = 100 us
        net.begin_flow(net.now, "f", 0, 1, 1600)
        net.advance_to(50e-6)
        t = net.earliest_completion()
        assert t == pytest.approx(100e-6)


class TestOvershootClamp:
    """advance_to past a completion must clamp remaining bytes at zero."""

    def test_deliberate_overshoot_clamps_remaining_at_zero(self):
        net = make_net()
        # 2000 wire bytes @ 20 MB/s = 100 us
        net.begin_flow(net.now, "f", 0, 1, 1600)
        net.advance_to(250e-6)  # 2.5x past the completion instant
        assert net.snapshot_remaining()["f"] == 0.0

    def test_overshot_flow_pops_with_zero_remaining(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 1600)
        assert net.pop_completed_keys(250e-6) == ["f"]
        assert net.active_count == 0

    def test_overshoot_does_not_corrupt_survivors(self):
        net = make_net(switch_contention=0.0)
        net.begin_flow(net.now, "short", 0, 4, 160)
        net.begin_flow(net.now, "long", 1, 5, 160000)
        t_short = net.earliest_completion()
        net.pop_completed_keys(t_short * 1.5)  # overshoot the short flow only
        remaining = net.snapshot_remaining()
        assert "short" not in remaining
        assert remaining["long"] > 0.0

    def test_overshot_flow_reports_completion_now(self):
        net = make_net()
        net.begin_flow(net.now, "f", 0, 1, 1600)
        net.advance_to(1.0)
        assert net.earliest_completion() == 1.0


class TestStallDetection:
    """Zero-rate unfinished flows raise a structured NetworkStallError."""

    def _stalled_net(self):
        # White-box: a healthy max-min allocation is strictly positive,
        # so force the zero-rate state the guard exists to surface.
        net = make_net()
        net.begin_flow(net.now, "k1", 0, 1, 1600)
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
        net.begin_flow(net.now, "done", 0, 1, 160)
        net.begin_flow(net.now, "stuck", 8, 9, 16000)
        t = net.earliest_completion()
        net.advance_to(t)
        net._rate[:2] = 0.0
        net.store.next = None  # drop the memoized completion
        assert net.earliest_completion() == net.now
        assert net.pop_completed_keys(net.now) == ["done"]


class TestJitter:
    def test_jitter_inflates_wire_volume(self):
        params = CM5Params(routing_jitter=2.0)
        tree = fat_tree_for(MachineConfig(16, params))
        base = wire_bytes(256)
        durations = []
        for s in range(64):
            net = FluidNetwork(tree, seed=s)
            net.begin_flow(net.now, "f", 0, 1, 256)
            durations.append(net.earliest_completion())
        floor = base / 20e6
        assert min(durations) >= floor - 1e-12
        assert max(durations) > floor * 1.2  # some messages are unlucky

    def test_jitter_is_deterministic_per_seed(self):
        params = CM5Params(routing_jitter=1.0)
        tree = fat_tree_for(MachineConfig(16, params))
        a = FluidNetwork(tree, seed=3)
        b = FluidNetwork(tree, seed=3)
        a.begin_flow(0.0, "f", 0, 9, 512)
        b.begin_flow(0.0, "f", 0, 9, 512)
        assert a.earliest_completion() == b.earliest_completion()

    def test_relative_jitter_shrinks_for_long_messages(self):
        params = CM5Params(routing_jitter=2.0)
        tree = fat_tree_for(MachineConfig(16, params))

        def spread(payload):
            outs = []
            for s in range(40):
                net = FluidNetwork(tree, seed=s)
                net.begin_flow(net.now, "f", 0, 1, payload)
                outs.append(net.earliest_completion())
            lo, hi = min(outs), max(outs)
            return (hi - lo) / lo

        assert spread(64) > spread(65536)

    def test_jitter_stream_crosses_blocks(self):
        # More flows than one pre-drawn block of normals: every flow's
        # jitter must match per-flow scalar draws and the reference
        # network, so a stale or misaligned block would show.
        seed = 11
        tree = fat_tree_for(MachineConfig(32, CM5Params(routing_jitter=1.0)))
        flows = [
            (i, i % 32, (i % 32 + 1 + i % 31) % 32, 64 * (1 + i % 5))
            for i in range(300)
        ]

        def run(net):
            for key, src, dst, payload in flows:
                net.begin_flow(net.now, key, src, dst, payload)
            if isinstance(net, ReferenceFluidNetwork):
                remaining = {k: f.wire_remaining for k, f in net._flows.items()}
            else:
                remaining = net.snapshot_remaining()
            events = []
            while net.active_count:
                t = net.earliest_completion()
                events.append((t, net.pop_completed_keys(t)))
            return remaining, events

        rng = np.random.default_rng(seed)
        scalar_wire = {}
        for key, _, _, payload in flows:
            wire = float(wire_bytes(payload))
            z = abs(rng.standard_normal())
            scalar_wire[key] = wire * (1.0 + 1.0 * z / math.sqrt(wire / 20.0))

        first = run(FluidNetwork(tree, seed=seed))
        reference = run(EngineFacingReference(tree, seed=seed))
        assert first[0] == scalar_wire
        assert reference == first


class _Key:
    """A weakref-able flow key with identity equality."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"_Key({self.name})"


def drive_keyed(net):
    """Run 24 flows keyed by fresh :class:`_Key` objects through the
    drain loop, and 16 more into vacated slots once 8 have retired.

    After every retirement the survivors' refcounts are unchanged and
    the vacated key slots hold None (retired keys are kept alive until
    the end, so a stale slot would still point at one).  Returns the
    completions as ``(time, name)``, then checks that no key outlived
    the run.
    """
    driver = DrainDriver(net)
    live, base, refs, retired = {}, {}, [], []

    def add_wave(names):
        for i in names:
            key = _Key(i)
            src = i % 16
            dst = (src + 1 + i % 15) % 16
            payload = 160 * (1 + (i * 7) % 4)
            net.begin_flow(driver.now, key, src, dst, payload)
            live[i] = key
            refs.append(weakref.ref(key))
        del key
        base.update({i: sys.getrefcount(live[i]) for i in names})

    def check():
        # Queued by each retirement; runs once the net check is done.
        now = {i: sys.getrefcount(live[i]) for i in live}
        assert now == {i: base[i] for i in live}
        assert all(k is None for k in net._keys[net.active_count :])
        if len(retired) >= 8 and len(base) == 24:
            add_wave(range(24, 40))  # refill vacated slots mid-run

    def on_complete(key):
        del live[key.name]
        retired.append(key)
        driver._schedule(driver.now, check)

    driver.on_complete = on_complete
    driver._schedule(0.0, add_wave, range(24))
    done = [(t, key.name) for t, key in driver.run()]
    driver.completions.clear()
    retired.clear()
    assert net.active_count == 0 and not live
    assert [r for r in refs if r() is not None] == []
    return done


class TestKeyCompaction:
    """Retiring flows moves key references without leaking any."""

    def test_retire_is_refcount_safe_on_both_paths(self):
        fast = drive_keyed(make_net(switch_contention=0.0))
        with mock.patch.object(_fastfill, "kernel", return_value=None):
            numpy_net = make_net(switch_contention=0.0)
        assert drive_keyed(numpy_net) == fast
        order = [name for _, name in fast]
        assert sorted(order) == list(range(40)) and order != sorted(order)
        batch_sizes = set(Counter(t for t, _ in fast).values())
        assert 1 in batch_sizes and max(batch_sizes) > 1
