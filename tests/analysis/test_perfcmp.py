"""Unit tests for the BENCH_sim.json regression comparator."""

import json

import pytest

from repro.analysis.perfcmp import (
    DEFAULT_MIN_DELTA,
    DEFAULT_THRESHOLD,
    compare_benches,
    load_bench,
    render_comparison,
)


def bench(workloads, scale="full"):
    return {"schema": "repro-bench-sim/1", "scale": scale, "workloads": workloads}


def row(wall, sim_ms=100.0, messages=64):
    return {"wall_seconds": wall, "sim_ms": sim_ms, "messages": messages}


class TestCompare:
    def test_identical_benches_are_ok(self):
        doc = bench({"pex_n32_b512": row(1.0), "irr_d50_greedy": row(0.2)})
        cmp = compare_benches(doc, doc)
        assert cmp.ok
        assert cmp.regressions == []
        assert cmp.sim_drifts == []
        assert len(cmp.deltas) == 2

    def test_speedup_is_ok(self):
        cmp = compare_benches(
            bench({"w": row(2.0)}), bench({"w": row(0.5)})
        )
        assert cmp.ok
        assert cmp.deltas[0].ratio == pytest.approx(-0.75)

    def test_regression_beyond_threshold_fails(self):
        cmp = compare_benches(
            bench({"w": row(1.0)}), bench({"w": row(1.5)})
        )
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["w"]
        assert cmp.deltas[0].ratio == pytest.approx(0.5)

    def test_slowdown_within_threshold_is_ok(self):
        cmp = compare_benches(
            bench({"w": row(1.0)}), bench({"w": row(1.05)})
        )
        assert cmp.ok

    def test_custom_threshold(self):
        base, cur = bench({"w": row(1.0)}), bench({"w": row(1.2)})
        assert not compare_benches(base, cur, threshold=0.10).ok
        assert compare_benches(base, cur, threshold=0.25).ok

    def test_nonpositive_threshold_rejected(self):
        doc = bench({"w": row(1.0)})
        with pytest.raises(ValueError):
            compare_benches(doc, doc, threshold=0.0)

    def test_sim_drift_fails_even_when_faster(self):
        # Simulated milliseconds moving between runs is a correctness
        # problem, not a perf delta — it must fail regardless of speed.
        cmp = compare_benches(
            bench({"w": row(1.0, sim_ms=100.0)}),
            bench({"w": row(0.5, sim_ms=101.0)}),
        )
        assert not cmp.ok
        assert [d.name for d in cmp.sim_drifts] == ["w"]
        assert cmp.regressions == []

    def test_disjoint_workloads_are_skipped_not_failed(self):
        # Same-scale docs whose workload sets drifted (a renamed or
        # retired workload): judge the intersection, report the rest.
        cmp = compare_benches(
            bench({"shared": row(1.0), "full_only": row(9.0)}),
            bench({"shared": row(1.0), "quick_only": row(0.1)}),
        )
        assert cmp.ok
        assert cmp.only_baseline == ["full_only"]
        assert cmp.only_current == ["quick_only"]
        assert [d.name for d in cmp.deltas] == ["shared"]

    def test_default_threshold_is_ten_percent(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.10)

    def test_zero_baseline_is_a_hard_error(self):
        # ratio-vs-zero used to be silently reported as 0.0 ("no
        # regression"); a degenerate baseline must fail the comparison.
        with pytest.raises(ValueError, match="baseline wall time"):
            compare_benches(bench({"w": row(0.0)}), bench({"w": row(5.0)}))

    def test_negative_baseline_is_a_hard_error(self):
        with pytest.raises(ValueError, match="w"):
            compare_benches(bench({"w": row(-1.0)}), bench({"w": row(1.0)}))


class TestNoiseFloor:
    """Absolute min-delta floor under the relative threshold.

    Millisecond-scale quick workloads routinely swing 30-80 % between
    process invocations from scheduler noise alone; a regression must
    clear both the ratio threshold and the absolute floor."""

    def test_default_floor_value(self):
        assert DEFAULT_MIN_DELTA == pytest.approx(0.05)

    def test_tiny_workload_noise_is_not_a_regression(self):
        # +80% on a 40 ms workload is a 32 ms delta — under the floor.
        cmp = compare_benches(bench({"w": row(0.04)}), bench({"w": row(0.072)}))
        assert cmp.ok
        assert cmp.deltas[0].ratio == pytest.approx(0.8)

    def test_gross_regression_on_tiny_workload_still_fails(self):
        # A 10x blowup clears the floor even from a 10 ms start.
        cmp = compare_benches(bench({"w": row(0.01)}), bench({"w": row(0.1)}))
        assert [d.name for d in cmp.regressions] == ["w"]

    def test_zero_floor_restores_pure_relative_behavior(self):
        base, cur = bench({"w": row(0.01)}), bench({"w": row(0.02)})
        assert compare_benches(base, cur).ok
        assert not compare_benches(base, cur, min_delta=0.0).ok

    def test_negative_floor_rejected(self):
        doc = bench({"w": row(1.0)})
        with pytest.raises(ValueError, match="min_delta"):
            compare_benches(doc, doc, min_delta=-0.01)

    def test_render_names_the_floor_for_suppressed_deltas(self):
        cmp = compare_benches(bench({"w": row(0.04)}), bench({"w": row(0.072)}))
        text = render_comparison(cmp)
        assert "noise floor" in text
        assert text.splitlines()[-1].startswith("OK:")


class TestRender:
    def test_render_mentions_verdicts_and_summary(self):
        cmp = compare_benches(
            bench({"good": row(1.0), "bad": row(1.0)}),
            bench({"good": row(1.0), "bad": row(2.0)}),
        )
        text = render_comparison(cmp)
        assert "REGRESSED" in text
        assert "FAIL: 1 regression(s)" in text

    def test_render_ok_summary(self):
        doc = bench({"w": row(1.0)})
        text = render_comparison(compare_benches(doc, doc))
        assert text.endswith("OK: no regressions beyond 10%")

    def test_render_lists_skipped_workloads(self):
        cmp = compare_benches(
            bench({"a": row(1.0)}), bench({"b": row(1.0)})
        )
        text = render_comparison(cmp)
        assert "baseline only" in text
        assert "current only" in text

    def test_render_summary_counts_skipped_workloads(self):
        # Disjoint workloads must be surfaced in the verdict line, not
        # just buried in the per-name listing.
        cmp = compare_benches(
            bench({"shared": row(1.0), "a": row(1.0)}),
            bench({"shared": row(1.0), "b": row(1.0)}),
        )
        summary = render_comparison(cmp).splitlines()[-1]
        assert "1 baseline-only" in summary
        assert "1 current-only" in summary

    def test_render_summary_has_no_skip_note_when_none_skipped(self):
        doc = bench({"w": row(1.0)})
        summary = render_comparison(compare_benches(doc, doc)).splitlines()[-1]
        assert "skipped" not in summary


class TestLoad:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "b.json"
        doc = bench({"w": row(1.0)})
        path.write_text(json.dumps(doc))
        assert load_bench(path) == doc

    def test_missing_workloads_key_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": "repro-bench-sim/1"}))
        with pytest.raises(ValueError, match="workloads"):
            load_bench(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"schema": "nope/9", "workloads": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_bench(path)

def service_bench(workloads, scale="full"):
    return {
        "schema": "repro-bench-service/3",
        "scale": scale,
        "workloads": workloads,
    }


def service_row(wall, speedup=6.0, hit_rate=0.9):
    return {"wall_seconds": wall, "speedup": speedup, "hit_rate": hit_rate}


class TestSchemaFamilies:
    def test_service_schema_accepted(self, tmp_path):
        path = tmp_path / "b.json"
        doc = service_bench({"w": service_row(1.0)})
        path.write_text(json.dumps(doc))
        assert load_bench(path) == doc

    def test_service_vs_service_compares(self):
        cmp = compare_benches(
            service_bench({"w": service_row(1.0)}),
            service_bench({"w": service_row(1.05)}),
        )
        assert cmp.ok
        # The service schema has no sim_ms; absence on both sides is
        # never reported as drift.
        assert cmp.sim_drifts == []

    def test_service_regression_detected(self):
        cmp = compare_benches(
            service_bench({"w": service_row(1.0)}),
            service_bench({"w": service_row(1.5)}),
        )
        assert [d.name for d in cmp.regressions] == ["w"]

    def test_cross_family_comparison_is_hard_error(self):
        with pytest.raises(ValueError, match="schema mismatch"):
            compare_benches(
                bench({"w": row(1.0)}),
                service_bench({"w": service_row(1.0)}),
            )

    def test_service_nonpositive_baseline_is_hard_error(self):
        with pytest.raises(ValueError, match="baseline wall time"):
            compare_benches(
                service_bench({"w": service_row(0.0)}),
                service_bench({"w": service_row(1.0)}),
            )


class TestScaleGuard:
    def test_cross_scale_comparison_is_hard_error(self):
        # Quick and full runs time different sweeps under different rep
        # counts; judging one against the other is meaningless.
        with pytest.raises(ValueError, match="scale mismatch"):
            compare_benches(
                bench({"w": row(1.0)}, scale="full"),
                bench({"w": row(1.0)}, scale="quick"),
            )

    def test_missing_scale_in_baseline_is_hard_error(self):
        base = bench({"w": row(1.0)})
        del base["scale"]
        with pytest.raises(ValueError, match="baseline.*scale"):
            compare_benches(base, bench({"w": row(1.0)}))

    def test_missing_scale_in_current_is_hard_error(self):
        cur = bench({"w": row(1.0)})
        del cur["scale"]
        with pytest.raises(ValueError, match="current.*scale"):
            compare_benches(bench({"w": row(1.0)}), cur)

    def test_missing_scale_in_both_names_both(self):
        base, cur = bench({"w": row(1.0)}), bench({"w": row(1.0)})
        del base["scale"]
        del cur["scale"]
        with pytest.raises(ValueError, match="baseline and current"):
            compare_benches(base, cur)

    def test_matching_quick_scales_compare(self):
        doc = bench({"w": row(1.0)}, scale="quick")
        assert compare_benches(doc, doc).ok

    def test_service_cross_scale_is_hard_error(self):
        with pytest.raises(ValueError, match="scale mismatch"):
            compare_benches(
                service_bench({"w": service_row(1.0)}, scale="full"),
                service_bench({"w": service_row(1.0)}, scale="quick"),
            )


class TestCrossVersion:
    def test_versions_within_family_are_hard_error(self):
        base = service_bench({"w": service_row(1.0)})
        cur = dict(base, schema="repro-bench-service/2")
        with pytest.raises(ValueError, match="schema mismatch"):
            compare_benches(base, cur)

    def test_one_sided_sim_ms_is_drift(self):
        base = bench({"w": row(1.0)})
        cur = bench({"w": row(1.0)})
        del cur["workloads"]["w"]["sim_ms"]
        cmp = compare_benches(base, cur)
        assert not cmp.ok
        assert [d.name for d in cmp.sim_drifts] == ["w"]
        assert "SIM-DRIFT" in render_comparison(cmp)

    def test_two_sided_sim_ms_mismatch_still_drifts(self):
        cmp = compare_benches(
            bench({"w": row(1.0, sim_ms=100.0)}),
            bench({"w": row(1.0, sim_ms=101.0)}),
        )
        assert not cmp.ok
        assert [d.name for d in cmp.sim_drifts] == ["w"]


def service_row_v3(wall, miss_rate=0.0, shed_rate=0.0):
    row = service_row(wall)
    row["deadline_miss_rate"] = miss_rate
    row["shed_rate"] = shed_rate
    return row


class TestServiceV3:
    """The guard-only fields (deadline_miss_rate, shed_rate) never trip
    a drift."""

    def test_v3_vs_v3_guard_fields_ignored_by_drift_check(self):
        cmp = compare_benches(
            service_bench({"w": service_row_v3(1.0, miss_rate=0.0)}),
            service_bench({"w": service_row_v3(1.0, miss_rate=0.4)}),
        )
        assert cmp.ok
        assert cmp.sim_drifts == []
