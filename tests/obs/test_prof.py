"""Hot-loop profiler tests: phase attribution, cross-check, sampling."""

import json

import pytest

from repro.obs import prof
from repro.obs.prof import (
    PHASES,
    PhaseReport,
    marker_table,
    profile_workload_names,
    render_phase_table,
    run_phase_profile,
    run_sampling_profile,
)


class TestMarkerTable:
    def test_every_engine_phase_has_markers(self):
        table = marker_table()
        phases_with_markers = set(table.values())
        # "other" is the catch-all — by construction it has no markers.
        assert phases_with_markers == set(PHASES) - {"other"}

    def test_markers_are_code_objects(self):
        for code in marker_table():
            assert hasattr(code, "co_name")

    def test_table_is_stable(self):
        assert marker_table() == marker_table()


class TestPhaseProfile:
    @pytest.fixture(scope="class")
    def report(self):
        return run_phase_profile("pex_n16_b512")

    def test_counts_cover_every_phase(self, report):
        from repro.machine._fastfill import kernel

        assert set(report.calls) == set(PHASES)
        assert report.messages > 0
        # Every run drains the event queue.
        assert report.calls["queue"] > 0
        if kernel() is None:
            # The generator path cannot run a message without a
            # dispatch.
            assert report.calls["dispatch"] > 0

    def test_compiled_queue_calls_count_as_queue(self, report):
        from repro.machine._fastfill import kernel

        if kernel() is None:
            pytest.skip("compiled kernel not loaded")
        # An untraced execute_schedule runs the schedule executor inside
        # the compiled drain loop: its one run() call counts as queue,
        # and no message makes an interpreter call.
        assert report.calls["queue"] >= 1
        for phase in ("resume", "dispatch", "rendezvous"):
            assert report.calls[phase] == 0, phase
        assert report.calls_per_message < 1.0

    def test_attributed_total_matches_direct_count(self, report):
        # Acceptance bar from the issue: attributed total within 10 %
        # of an independent plain-counter sys.setprofile run.
        assert report.direct_total is not None
        delta = abs(report.total - report.direct_total) / report.direct_total
        assert delta <= 0.10

    def test_per_message_normalization(self, report):
        assert report.calls_per_message == pytest.approx(
            report.total / report.messages
        )
        assert report.calls_per_message > 0

    def test_json_round_trips(self, report):
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["schema"] == "repro-profile/1"
        assert doc["workload"] == "pex_n16_b512"
        assert doc["calls"]["dispatch"] == report.calls["dispatch"]

    def test_render_table(self, report):
        text = render_phase_table(report)
        for phase in PHASES:
            assert phase in text
        assert "calls/msg" in text
        assert "direct" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown profile workload"):
            run_phase_profile("nope_n0_b0")

    def test_direct_check_optional(self):
        report = run_phase_profile("pex_n16_b512", direct_check=False)
        assert report.direct_total is None
        assert report.total > 0


class TestSamplingProfile:
    def test_collapsed_stack_format(self):
        lines, taken, wall = run_sampling_profile(
            "pex_n32_b512", interval=0.001
        )
        assert taken >= 0 and wall > 0
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
            assert ";" in stack or ":" in stack


class TestWorkloadNames:
    def test_union_of_quick_and_full(self):
        names = profile_workload_names()
        assert "pex_n16_b512" in names
        assert "pex_n256_b512" in names
        assert "bex_n1024_b512" in names
