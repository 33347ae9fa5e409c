"""Telemetry tests: histogram determinism, exposition, frozen names."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry, bucket_bounds, bucket_index
from repro.obs.telemetry import (
    METRIC_NAMES,
    METRICS_SCHEMA,
    SERVICE_TIERS,
    check_prom,
    merge_state,
    metric_help,
    metrics_to_json,
    registry_state,
    render_prom,
    validate_metrics_json,
)

finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestBuckets:
    def test_bounds_contain_value(self):
        for v in (1e-9, 0.001, 0.5, 1.0, 1.5, 7.0, 1e6):
            lo, hi = bucket_bounds(bucket_index(v))
            assert lo <= v < hi

    def test_bucket_ratio_is_tight(self):
        # The widest sub-bucket spans [0.5, 0.5625) x 2^e — a 9/8 ratio,
        # which bounds the relative error of every reported quantile.
        for v in (0.001, 0.37, 42.0):
            lo, hi = bucket_bounds(bucket_index(v))
            assert hi / lo <= 9 / 8 + 1e-12


class TestHistogramDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(finite_floats, max_size=40),
        b=st.lists(finite_floats, max_size=40),
    )
    def test_merge_equals_concatenated_stream(self, a, b):
        h1, h2, hc = Histogram(), Histogram(), Histogram()
        for v in a:
            h1.observe(v)
        for v in b:
            h2.observe(v)
        for v in a + b:
            hc.observe(v)
        h1.merge(h2)
        # Exact state equality — not approximate: sums are exact.
        assert h1.state() == hc.state()

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(finite_floats, max_size=60))
    def test_state_round_trip_is_exact(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        assert Histogram.from_state(h.state()).state() == h.state()

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=60))
    def test_state_survives_json(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        wire = json.loads(json.dumps(h.state()))
        assert Histogram.from_state(wire).state() == h.state()

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(
                    min_value=-1e-300, max_value=1e-300, allow_subnormal=True
                ),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
            ),
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=3),
        order=st.randoms(use_true_random=False),
    )
    def test_sum_equals_a_fraction_reference(self, values, cuts, order):
        """Subnormals, negatives, zeros and huge values, split into parts
        merged in any order: state, total and mean equal what an exact
        Fraction sum gives."""
        from fractions import Fraction

        bounds = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            h = Histogram()
            for v in values[lo:hi]:
                h.observe(v)
            parts.append(h)
        order.shuffle(parts)
        merged = Histogram()
        for h in parts:
            merged.merge(h)
        ref = sum((Fraction(v) for v in values), Fraction(0))
        assert merged.state()["sum"] == [ref.numerator, ref.denominator]

        def as_float(value):
            try:
                return float(value())
            except OverflowError:
                return "overflow"

        assert as_float(lambda: merged.total) == as_float(lambda: float(ref))
        if values:
            assert as_float(lambda: merged.mean) == as_float(
                lambda: float(ref / len(values))
            )

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(
                    min_value=-1e-300, max_value=1e-300, allow_subnormal=True
                ),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
            ),
            max_size=40,
        ),
        cuts=st.lists(st.integers(0, 40), max_size=3),
        order=st.randoms(use_true_random=False),
    )
    def test_state_matches_the_python_int_reference(self, values, cuts, order):
        """Per-exponent mantissa sums give the state the single shifted
        Python int gave: one stream, or its parts merged in any order."""
        units = 0
        for v in values:
            n, d = v.as_integer_ratio()
            units += n << (1075 - d.bit_length())
        shift = min((units & -units).bit_length() - 1, 1074) if units else 1074
        ref_sum = [units >> shift, 1 << (1074 - shift)]

        whole = Histogram()
        for v in values:
            whole.observe(v)
        assert whole.state()["sum"] == ref_sum
        bounds = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            h = Histogram()
            for v in values[lo:hi]:
                h.observe(v)
            parts.append(Histogram.from_state(h.state()) if lo % 2 else h)
        order.shuffle(parts)
        merged = Histogram()
        for h in parts:
            merged.merge(h)
        assert json.dumps(merged.state()) == json.dumps(whole.state())

    @pytest.mark.parametrize(
        "value, error", [(float("nan"), ValueError), (float("inf"), OverflowError),
                         (float("-inf"), OverflowError)]
    )
    def test_non_finite_observations_raise_as_fraction_does(self, value, error):
        from fractions import Fraction

        with pytest.raises(error) as ref:
            Fraction(value)
        with pytest.raises(error) as got:
            Histogram().observe(value)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "sum_", [[1, 0], [1, -4], [1, 3], [1, 2**1075], [1, 2**1074 * 3]]
    )
    def test_from_state_rejects_impossible_sums(self, sum_):
        h = Histogram()
        h.observe(0.5)
        state = dict(h.state(), sum=sum_)
        with pytest.raises(ValueError):
            Histogram.from_state(state)

    def test_quantiles_bracket_observations(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(i / 100.0)
        assert h.minimum <= h.p50 <= h.p90 <= h.p99 <= h.maximum
        assert h.p50 == pytest.approx(0.5, rel=0.07)
        assert h.p99 == pytest.approx(0.99, rel=0.07)


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("sim.messages").inc(7)
    reg.gauge("sim.makespan_seconds").set(0.25)
    h = reg.histogram("service.latency")
    for v in (0.001, 0.002, 0.002, 0.75):
        h.observe(v)
    return reg


class TestPromExposition:
    def test_golden_bytes(self):
        # The exact rendering is the contract: sorted names, HELP/TYPE
        # from the frozen table, cumulative buckets, repr floats.
        expected = (
            "# HELP service_latency end-to-end request latency, all tiers\n"
            "# TYPE service_latency histogram\n"
            'service_latency_bucket{le="0.0010986328125"} 1\n'
            'service_latency_bucket{le="0.002197265625"} 3\n'
            'service_latency_bucket{le="0.8125"} 4\n'
            'service_latency_bucket{le="+Inf"} 4\n'
            "service_latency_sum 0.755\n"
            "service_latency_count 4\n"
        )
        text = render_prom(_sample_registry())
        assert text.endswith(expected)
        assert text.startswith(
            "# HELP sim_messages point-to-point messages delivered\n"
        )

    def test_byte_stable_across_insertion_order(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("sim.messages").inc(3)
        r1.counter("net.allocations").inc(1)
        r2.counter("net.allocations").inc(1)
        r2.counter("sim.messages").inc(3)
        assert render_prom(r1) == render_prom(r2)

    def test_check_prom_accepts_own_output(self):
        metrics, samples = check_prom(render_prom(_sample_registry()))
        assert metrics == 3
        assert samples >= 7

    def test_check_prom_rejects_untyped_sample(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            check_prom("orphan_metric 1\n")

    def test_check_prom_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="not a valid"):
            check_prom("# TYPE x counter\nx one\n")

    def test_check_prom_rejects_count_inf_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            check_prom(bad)


class TestJsonSnapshot:
    def test_schema_and_validation(self):
        doc = metrics_to_json(_sample_registry(), meta={"run": "t"})
        assert doc["schema"] == METRICS_SCHEMA
        metrics, _ = validate_metrics_json(doc)
        assert metrics == 3

    def test_byte_stable_serialization(self):
        docs = [
            json.dumps(metrics_to_json(_sample_registry()), sort_keys=True)
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_validate_rejects_wrong_schema(self):
        doc = metrics_to_json(_sample_registry())
        doc["schema"] = "repro-metrics/999"
        with pytest.raises(ValueError, match="schema"):
            validate_metrics_json(doc)

    def test_validate_rejects_state_count_mismatch(self):
        doc = metrics_to_json(_sample_registry())
        doc["histograms"]["service.latency"]["count"] += 1
        with pytest.raises(ValueError, match="count"):
            validate_metrics_json(doc)

    def test_validate_rejects_non_numeric_counter(self):
        doc = metrics_to_json(_sample_registry())
        doc["counters"]["sim.messages"] = "seven"
        with pytest.raises(ValueError, match="non-numeric"):
            validate_metrics_json(doc)


class TestMergeState:
    def test_split_stream_merges_to_identical_document(self):
        values = [0.001 * (i + 1) for i in range(50)] + [0.0, -1.0]
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(3)]
        for i, v in enumerate(values):
            whole.histogram("service.latency").observe(v)
            parts[i % 3].histogram("service.latency").observe(v)
        for i, part in enumerate(parts):
            whole.counter("service.requests").inc(i + 1)
            part.counter("service.requests").inc(i + 1)
        merged = MetricsRegistry()
        for part in parts:
            merge_state(merged, registry_state(part))
        assert json.dumps(
            metrics_to_json(merged), sort_keys=True
        ) == json.dumps(metrics_to_json(whole), sort_keys=True)

    def test_merge_order_does_not_matter(self):
        parts = []
        for seed in range(3):
            r = MetricsRegistry()
            for i in range(10):
                r.histogram("service.latency").observe(0.01 * (seed + 1) * (i + 1))
            parts.append(registry_state(r))
        a, b = MetricsRegistry(), MetricsRegistry()
        for s in parts:
            merge_state(a, s)
        for s in reversed(parts):
            merge_state(b, s)
        assert registry_state(a) == registry_state(b)

    def test_gauges_take_delta_value(self):
        a = MetricsRegistry()
        a.gauge("sim.makespan_seconds").set(1.0)
        b = MetricsRegistry()
        b.gauge("sim.makespan_seconds").set(2.5)
        merge_state(a, registry_state(b))
        assert a.gauges["sim.makespan_seconds"].value == 2.5


#: A metric-name literal: any quoted dotted name under the frozen
#: prefixes.  Attribute access (``res.sim.messages``) never matches —
#: only string literals do.
_NAME_RE = re.compile(
    r"[\"']((?:sim|net|faults|packet|service)"
    r"\.[a-z0-9_]+(?:\.[a-z0-9_]+)*)[\"']"
)


def _scan_emitted_names():
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    found = set()
    for path in src.rglob("*.py"):
        if path.as_posix().endswith("obs/telemetry.py"):
            continue  # the registry itself must not vouch for itself
        for m in _NAME_RE.finditer(path.read_text()):
            found.add(m.group(1))
    return found


class TestFrozenRegistry:
    """Renaming a metric must be a deliberate act, not a drive-by."""

    def test_every_emitted_name_is_frozen(self):
        unfrozen = _scan_emitted_names() - set(METRIC_NAMES)
        assert not unfrozen, (
            f"metric name(s) emitted but missing from "
            f"telemetry.METRIC_NAMES (add a row + MODEL.md line): "
            f"{sorted(unfrozen)}"
        )

    def test_every_frozen_name_is_emitted(self):
        dead = set(METRIC_NAMES) - _scan_emitted_names()
        assert not dead, (
            f"frozen metric name(s) nothing emits any more (remove the "
            f"row or restore the emission): {sorted(dead)}"
        )

    def test_kinds_are_known(self):
        assert {kind for kind, _ in METRIC_NAMES.values()} <= {
            "counter",
            "gauge",
            "histogram",
        }

    def test_tiers_have_latency_histograms(self):
        from repro.service.scheduler import SOURCES

        assert SERVICE_TIERS == SOURCES
        for tier in SERVICE_TIERS:
            assert metric_help(f"service.latency.{tier}") is not None
            assert METRIC_NAMES[f"service.latency.{tier}"][0] == "histogram"
