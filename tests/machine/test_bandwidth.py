"""Unit and property tests for max-min fair allocation."""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    FAT_TREE_ARITY,
    CM5Params,
    FluidNetwork,
    MachineConfig,
    _fastfill,
    bandwidth,
    fat_tree_for,
)
from repro.machine.bandwidth import build_incidence, max_min_rates
from tests.machine.test_contention import DrainDriver


def rates_for(paths, caps, flow_caps=None, link_scales=None):
    ptr, links = build_incidence(paths)
    nlinks = max((max(p) for p in paths if p), default=-1) + 1
    link_caps = np.asarray(caps, dtype=float)
    assert len(link_caps) >= nlinks
    fc = (
        np.full(len(paths), np.inf)
        if flow_caps is None
        else np.asarray(flow_caps, dtype=float)
    )
    scales = None if link_scales is None else np.asarray(link_scales, dtype=float)
    return max_min_rates(link_caps, ptr, links, fc, scales)


def oracle_rates(caps, paths, flow_caps, link_scales=None):
    """Naive scalar progressive filling — the textbook algorithm.

    Dict-and-loop reference with no vectorization, no CSR, no reused
    buffers and no compiled kernel: rates of all unfrozen flows rise
    together until a link saturates or a flow hits its cap.  The
    production implementation must agree with this on every input.
    """
    eff = [
        c * (link_scales[i] if link_scales is not None else 1.0)
        for i, c in enumerate(caps)
    ]
    nflows = len(paths)
    rates = [0.0] * nflows
    cap_left = list(flow_caps)
    remaining = list(eff)
    active = set(range(nflows))
    while active:
        counts = Counter(l for f in active for l in paths[f])
        delta = min(
            min(
                min(remaining[l] / counts[l] for l in paths[f]),
                cap_left[f],
            )
            for f in active
        )
        assert math.isfinite(delta)
        for f in active:
            rates[f] += delta
            cap_left[f] -= delta
        for l, c in counts.items():
            remaining[l] -= c * delta
        frozen = {
            f
            for f in active
            if cap_left[f]
            <= 1e-12 * (flow_caps[f] if math.isfinite(flow_caps[f]) else 1.0) + 1e-15
            or any(remaining[l] <= 1e-12 * eff[l] + 1e-15 for l in paths[f])
        }
        assert frozen, "progressive filling stalled"
        active -= frozen
    return rates


class TestBasic:
    def test_single_flow_gets_bottleneck(self):
        r = rates_for([[0, 1]], [10.0, 4.0])
        assert r[0] == pytest.approx(4.0)

    def test_equal_sharing(self):
        r = rates_for([[0], [0]], [10.0])
        assert r.tolist() == pytest.approx([5.0, 5.0])

    def test_docstring_example(self):
        r = rates_for([[0], [0, 1]], [10.0, 3.0])
        assert r.tolist() == pytest.approx([7.0, 3.0])

    def test_flow_cap_binds(self):
        r = rates_for([[0], [0]], [10.0], flow_caps=[2.0, np.inf])
        assert r.tolist() == pytest.approx([2.0, 8.0])

    def test_three_level_waterfill(self):
        # Flows: A on link0 only; B on link0+link1; C on link1 only.
        r = rates_for([[0], [0, 1], [1]], [10.0, 4.0])
        assert r[1] == pytest.approx(2.0)
        assert r[2] == pytest.approx(2.0)
        assert r[0] == pytest.approx(8.0)

    def test_empty_problem(self):
        out = max_min_rates(np.array([1.0]), np.array([0]), np.array([], dtype=int), np.array([]))
        assert out.size == 0

    def test_flow_without_links_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates(
                np.array([1.0]),
                np.array([0, 0]),
                np.array([], dtype=int),
                np.array([np.inf]),
            )

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            rates_for([[0]], [0.0])

    def test_nonpositive_flow_cap_rejected(self):
        with pytest.raises(ValueError):
            rates_for([[0]], [1.0], flow_caps=[0.0])

    def test_link_index_out_of_range_rejected(self):
        # The per-link counts come out longer than the link arrays.
        ptr, links = build_incidence([[0], [5]])
        with pytest.raises(ValueError):
            max_min_rates(np.array([1.0, 1.0]), ptr, links, np.array([1.0, 1.0]))


@st.composite
def allocation_problems(draw):
    nlinks = draw(st.integers(1, 6))
    nflows = draw(st.integers(1, 12))
    caps = draw(
        st.lists(
            st.floats(0.5, 100.0, allow_nan=False), min_size=nlinks, max_size=nlinks
        )
    )
    paths = [
        draw(
            st.lists(
                st.integers(0, nlinks - 1), min_size=1, max_size=nlinks, unique=True
            )
        )
        for _ in range(nflows)
    ]
    flow_caps = draw(
        st.lists(
            st.one_of(st.just(float("inf")), st.floats(0.1, 50.0)),
            min_size=nflows,
            max_size=nflows,
        )
    )
    return caps, paths, flow_caps


@st.composite
def scaled_allocation_problems(draw):
    """Allocation problems, optionally on a degraded topology."""
    caps, paths, flow_caps = draw(allocation_problems())
    scales = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(0.05, 1.0, allow_nan=False),
                min_size=len(caps),
                max_size=len(caps),
            ),
        )
    )
    return caps, paths, flow_caps, scales


class TestProperties:
    @given(allocation_problems())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_and_positivity(self, problem):
        caps, paths, flow_caps = problem
        rates = rates_for(paths, caps, flow_caps)
        # Positivity: every flow gets something.
        assert (rates > 0).all()
        # Flow caps respected.
        for r, c in zip(rates, flow_caps):
            assert r <= c * (1 + 1e-9)
        # Link capacities respected.
        load = np.zeros(len(caps))
        for path, r in zip(paths, rates):
            for l in path:
                load[l] += r
        assert (load <= np.asarray(caps) * (1 + 1e-6)).all()

    @given(allocation_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_flow_is_bottlenecked(self, problem):
        """Max-min property: each flow is limited by its cap or a
        saturated link on which it has a maximal rate."""
        caps, paths, flow_caps = problem
        rates = rates_for(paths, caps, flow_caps)
        load = np.zeros(len(caps))
        for path, r in zip(paths, rates):
            for l in path:
                load[l] += r
        for i, (path, r) in enumerate(zip(paths, rates)):
            if r >= flow_caps[i] * (1 - 1e-6):
                continue  # capped
            bottleneck = False
            for l in path:
                if load[l] >= caps[l] * (1 - 1e-6):
                    # r must be maximal among flows through l.
                    peers = [
                        rates[j] for j, p in enumerate(paths) if l in p
                    ]
                    if r >= max(peers) * (1 - 1e-6):
                        bottleneck = True
                        break
            assert bottleneck, f"flow {i} is neither capped nor bottlenecked"

    @given(allocation_problems())
    @settings(max_examples=100, deadline=None)
    def test_deterministic(self, problem):
        caps, paths, flow_caps = problem
        a = rates_for(paths, caps, flow_caps)
        b = rates_for(paths, caps, flow_caps)
        assert np.array_equal(a, b)


class TestAgainstOracle:
    """The optimized allocator vs the naive scalar reference."""

    @given(scaled_allocation_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_progressive_filling(self, problem):
        caps, paths, flow_caps, scales = problem
        got = rates_for(paths, caps, flow_caps, link_scales=scales)
        want = oracle_rates(caps, paths, flow_caps, link_scales=scales)
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=1e-12)



@st.composite
def network_runs(draw):
    """A fat tree, optional degraded links, and waves of flows.

    Waves start at increasing times; pairs repeat and share links, so
    the switch-contention penalty binds.
    """
    nprocs = draw(st.sampled_from([4, 8, 16]))
    tree = fat_tree_for(MachineConfig(nprocs))
    links = tree.sorted_link_ids
    degraded = draw(
        st.dictionaries(
            st.sampled_from(links), st.floats(0.05, 1.0), max_size=4
        )
    )
    flow = st.tuples(
        st.integers(0, nprocs - 1), st.integers(1, nprocs - 1),
        st.sampled_from([0, 64, 512, 4096]),
    ).map(lambda f: (f[0], (f[0] + f[1]) % nprocs, f[2]))
    waves = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 2e-4), st.lists(flow, min_size=1, max_size=12)
            ),
            min_size=1,
            max_size=4,
        )
    )
    return tree, degraded, waves


def run_network(net, waves):
    """Drive ``net`` through ``waves`` on the engine's drain loop (the
    compiled cycle for a kernel network): each wave's flows start at
    its instant.  Returns the completions and, per reallocation, the
    observer's per-link rates and the per-flow rates behind them, rates
    as exact bytes; the series includes the all-zero idle samples."""
    driver = DrainDriver(net)
    series = []
    net.observer = lambda now, rates: series.append(
        (now, rates.tobytes(), net._rate[: net.active_count].tobytes())
    )

    def begin_wave(first, flows):
        for key, (src, dst, payload) in enumerate(flows, first):
            net.begin_flow(driver.now, key, src, dst, payload)

    start, first = 0.0, 0
    for gap, flows in waves:
        start += gap
        driver._schedule(start, begin_wave, first, flows)
        first += len(flows)
    return driver.run(), series


def route_level(src, dst):
    """Level of the highest switch on the src -> dst route."""
    level = 0
    while src != dst:
        src //= FAT_TREE_ARITY
        dst //= FAT_TREE_ARITY
        level += 1
    return level


@st.composite
def churn_runs(draw):
    """Long begin/retire churn on a 64- or 128-node fat tree.

    Many waves at short gaps, so flows retire while others start and
    each link's live-flow count rises, falls and comes back (the
    kernel's per-link memo is reused and rederived); flows at every
    route level (every rate cap); switch contention off or on; degraded
    links.
    """
    nprocs = draw(st.sampled_from([64, 128]))
    params = CM5Params(
        switch_contention=draw(st.sampled_from([0.0, 0.12, 0.5])),
        contention_cap=draw(st.sampled_from([1.5, 4.0])),
    )
    tree = fat_tree_for(MachineConfig(nprocs, params))
    degraded = draw(
        st.dictionaries(
            st.sampled_from(tree.sorted_link_ids), st.floats(0.05, 1.0),
            max_size=6,
        )
    )

    @st.composite
    def flows(draw):
        src = draw(st.integers(0, nprocs - 1))
        level = draw(st.integers(1, tree.levels))
        peers = [d for d in range(nprocs) if route_level(src, d) == level]
        payload = draw(st.sampled_from([0, 64, 512, 1920, 4096]))
        return src, draw(st.sampled_from(peers)), payload

    waves = draw(
        st.lists(
            st.tuples(st.floats(0.0, 3e-4), st.lists(flows(), min_size=2, max_size=32)),
            min_size=12,
            max_size=24,
        )
    )
    return tree, degraded, waves


def kernel_and_numpy_networks(tree, link_scales=None):
    fast = FluidNetwork(tree, seed=3, link_scales=link_scales)
    with mock.patch.object(_fastfill, "kernel", return_value=None):
        slow = FluidNetwork(tree, seed=3, link_scales=link_scales)
    assert type(fast.store) is not type(slow.store)
    return fast, slow


@pytest.mark.skipif(_fastfill.kernel() is None, reason="kernel not loaded")
class TestKernelNetwork:
    @given(network_runs())
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_numpy_networks_bit_identical(self, problem):
        """A network on the compiled cycle (C reallocation, scan and
        retirement, store-held observer) and one built without the
        kernel (the engine's Python arm on the NumPy reference) agree to
        the bit: completions, per-flow rates and link-utilization
        series."""
        tree, degraded, waves = problem
        fast, slow = kernel_and_numpy_networks(tree, degraded)
        assert run_network(fast, waves) == run_network(slow, waves)

    @given(churn_runs())
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_under_churn_at_scale(self, problem):
        """The same at N = 64 and 128, under long churn."""
        tree, degraded, waves = problem
        fast, slow = kernel_and_numpy_networks(tree, degraded)
        completions, series = run_network(fast, waves)
        assert (completions, series) == run_network(slow, waves)
        assert len(completions) == sum(len(flows) for _, flows in waves)

    @given(
        st.lists(st.floats(1e5, 3e7), min_size=4, max_size=8, unique=True),
        st.lists(st.tuples(st.integers(0, 15), st.integers(1, 15)), max_size=24),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_begin_with_more_rate_caps_than_levels(self, pool, pairs, data):
        """Flows started through the kernel's begin with more distinct
        rate caps than the tree has levels (more cap classes than a
        schedule run makes) get the NumPy reference's rates."""
        tree = fat_tree_for(MachineConfig(16))
        assert len(pool) > tree.levels
        # Every pool cap at least once, some several times.
        caps = pool + [data.draw(st.sampled_from(pool)) for _ in pairs]
        pairs = pairs + [(i, 1 + i) for i in range(len(pool))]
        k = _fastfill.kernel()
        fast, slow = kernel_and_numpy_networks(tree)
        for key, ((src, hop), cap) in enumerate(zip(pairs, caps)):
            dst = (src + hop) % 16
            off, length = tree.route_slot(src, dst)
            while not k.begin(
                fast.store, 0.0, key, 1e4, cap, src, dst,
                tree.route_buffer[1], off, length,
            ):
                fast._grow_slots(fast.store.n + 1)
            slow.begin_flow(0.0, key, src, dst, 512)
            slow._rate_cap[key] = cap
        n = len(caps)
        fast.begin_flow(1e-9, n, 0, 1, 512)  # reallocates in the kernel
        slow.advance_to(1e-9)
        assert fast._rate[:n].tobytes() == slow._rate[:n].tobytes()

    @pytest.mark.parametrize(
        "rate_cap, route",
        [
            # Round 1's increment is -inf, with every link counted.
            (-math.inf, (3, 12)),
            # No link and a NaN cap: the flow never freezes, so the fill
            # fails once the others froze, after rounds that saturated
            # links.
            (math.nan, None),
        ],
    )
    def test_failed_reallocation_restores_the_kernel_invariants(
        self, rate_cap, route
    ):
        """A reallocation that raises through the public begin leaves
        the per-link counts and saturation flags all zero, so the next
        one on the same store still equals the NumPy network's."""
        tree = fat_tree_for(MachineConfig(16, CM5Params(routing_jitter=0.0)))
        fast, slow = kernel_and_numpy_networks(tree)
        good = [(0, 5, 512), (1, 9, 4096), (2, 3, 64), (5, 0, 512), (4, 7, 1920)]
        for net in (fast, slow):
            for key, (src, dst, payload) in enumerate(good):
                net.begin_flow(0.0, key, src, dst, payload)
        # The failing flow has no bytes, so the next check retires it.
        off, length = (0, 0) if route is None else tree.route_slot(*route)
        assert _fastfill.kernel().begin(
            fast.store, 0.0, "bad", 0.0, rate_cap, 0, 1,
            tree.route_buffer[1], off, length,
        )
        with pytest.raises(RuntimeError, match="unbounded flow"):
            fast.begin_flow(1e-6, "late", 3, 12, 512)
        assert fast.store.dirty and fast.now == 0.0
        assert not fast._alloc_ws.counts.any()
        assert not fast._link_sat.any()
        assert fast.pop_completed_keys(0.0) == ["bad"]
        for net in (fast, slow):
            net.begin_flow(1e-6, "late", 3, 12, 512)
        n = len(good) + 1
        assert fast._rate[:n].tobytes() == slow._rate[:n].tobytes()
        assert fast._wire[:n].tobytes() == slow._wire[:n].tobytes()
        assert fast.snapshot_rates() == slow.snapshot_rates()


class TestDegradedScales:
    def test_scales_reduce_effective_capacity(self):
        healthy = rates_for([[0]], [10.0])
        degraded = rates_for([[0]], [10.0], link_scales=[0.5])
        assert healthy[0] == pytest.approx(10.0)
        assert degraded[0] == pytest.approx(5.0)

    def test_bad_scale_shape_rejected(self):
        with pytest.raises(ValueError):
            rates_for([[0]], [10.0], link_scales=[0.5, 0.5])

    def test_out_of_range_scale_rejected(self):
        with pytest.raises(ValueError):
            rates_for([[0]], [10.0], link_scales=[1.5])


class TestWorkspaceReuse:
    def test_workspace_reuse_is_bitwise_stable(self):
        ws = bandwidth.AllocationWorkspace(2)
        ptr, links = build_incidence([[0], [0, 1]])
        caps = np.array([10.0, 3.0])
        fc = np.array([np.inf, np.inf])
        first = max_min_rates(caps, ptr, links, fc, workspace=ws).copy()
        for _ in range(5):
            again = max_min_rates(caps, ptr, links, fc, workspace=ws)
            assert np.array_equal(first, again)

    def test_workspace_grows_with_flow_count(self):
        ws = bandwidth.AllocationWorkspace(1)
        for nflows in (1, 40, 3):
            paths = [[0]] * nflows
            ptr, links = build_incidence(paths)
            r = max_min_rates(
                np.array([12.0]),
                ptr,
                links,
                np.full(nflows, np.inf),
                workspace=ws,
            )
            assert r.sum() == pytest.approx(12.0)
