"""Metric primitives and the link-utilization time series."""

import numpy as np
import pytest

from repro.machine.fattree import fat_tree_for
from repro.machine.params import MachineConfig
from repro.obs import LinkUtilization, MetricsRegistry


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        assert reg.counters["c"].value == 5
        assert reg.gauges["g"].value == 2.5
        h = reg.histograms["h"]
        assert h.count == 2 and h.mean == 2.0
        assert h.minimum == 1.0 and h.maximum == 3.0

    def test_snapshot_is_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2
        assert snap["histograms"]["h"]["mean"] == 4.0

    def test_empty_histogram_snapshot_has_finite_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["min"] == 0.0 and snap["max"] == 0.0 and snap["count"] == 0

    @pytest.mark.parametrize("kind", ["counters", "gauges", "histograms"])
    def test_creation_race_keeps_one_metric(self, kind):
        # Another thread creates the metric between this call's miss and
        # its insert: both callers must end up with the registry's one.
        reg = MetricsRegistry()
        get_or_create = getattr(reg, kind[:-1])
        other = []

        class Racing(dict):
            def get(self, name, default=None):
                found = super().get(name, default)
                if found is None and not other:
                    other.append(None)
                    other[0] = get_or_create(name)
                return found

        setattr(reg, kind, Racing())
        mine = get_or_create("m")
        assert mine is other[0] is getattr(reg, kind)["m"]


class _StubTree:
    """Two-link topology: ids in canonical order, caps 10 and 20 B/s."""

    sorted_link_ids = (("up", 1, 0), ("up", 2, 0))
    link_caps_array = np.array([10.0, 20.0])


class TestLinkUtilization:
    def test_binned_utilization_time_weighted(self):
        lu = LinkUtilization(_StubTree())
        # Link 0 runs at full rate for [0, 1), half rate for [1, 2).
        lu.record(0.0, np.array([10.0, 0.0]))
        lu.record(1.0, np.array([5.0, 20.0]))
        lu.record(2.0, np.array([0.0, 0.0]))
        edges, util = lu.binned_utilization(2, t_end=2.0)
        assert edges[0] == 0.0 and edges[-1] == 2.0
        assert util[0] == pytest.approx([1.0, 0.5])
        assert util[1] == pytest.approx([0.0, 1.0])

    def test_record_copies_the_rates_array(self):
        lu = LinkUtilization(_StubTree())
        rates = np.array([1.0, 2.0])
        lu.record(0.0, rates)
        rates[:] = 99.0
        assert lu.samples[0][1].tolist() == [1.0, 2.0]

    def test_peak_and_groups(self):
        lu = LinkUtilization(_StubTree())
        lu.record(0.0, np.array([5.0, 20.0]))
        assert lu.peak_utilization() == pytest.approx(1.0)
        groups = lu.level_groups()
        # Top level first.
        assert list(groups) == [("up", 2), ("up", 1)]
        assert groups[("up", 1)] == [0]

    def test_empty_series(self):
        lu = LinkUtilization(_StubTree())
        edges, util = lu.binned_utilization(4)
        assert util.shape == (2, 4)
        assert not util.any()
        assert lu.peak_utilization() == 0.0

    def test_real_tree_link_order_matches(self):
        tree = fat_tree_for(MachineConfig(8))
        lu = LinkUtilization(tree)
        assert len(lu.link_ids) == len(lu.caps)
        assert lu.link_ids == tuple(tree.sorted_link_ids)
