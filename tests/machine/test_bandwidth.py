"""Unit and property tests for max-min fair allocation."""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FluidNetwork, MachineConfig, _fastfill, bandwidth, fat_tree_for
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


class TestKernelNetwork:
    @pytest.mark.skipif(_fastfill.kernel() is None, reason="kernel not loaded")
    @given(network_runs())
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_numpy_networks_bit_identical(self, problem):
        """A network on the compiled cycle (C reallocation, scan and
        retirement, store-held observer) and one built without the
        kernel (the engine's Python arm on the NumPy reference) agree to
        the bit: completions, per-flow rates and link-utilization
        series."""
        tree, degraded, waves = problem
        fast = FluidNetwork(tree, seed=3, link_scales=degraded)
        with mock.patch.object(_fastfill, "kernel", return_value=None):
            slow = FluidNetwork(tree, seed=3, link_scales=degraded)
        assert type(fast.store) is not type(slow.store)
        assert run_network(fast, waves) == run_network(slow, waves)


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
