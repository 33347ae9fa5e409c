"""Tests for the optimality-gap harness (repro.analysis.optgap)."""

import json

import pytest

from repro.analysis.optgap import (
    OPTGAP_SCHEMA,
    GapEntry,
    GroupGaps,
    OptgapReport,
    optgap_json,
    pattern_gaps,
    render_optgap,
    write_optgap,
)
from repro.machine import CM5Params, MachineConfig
from repro.schedules import CommPattern, makespan_lower_bound


@pytest.fixture(scope="module")
def group8():
    pat = CommPattern.synthetic(8, 0.4, 256, seed=2)
    cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
    return pattern_gaps("t/8", pat, cfg)


class TestPatternGaps:
    def test_prices_every_algorithm_plus_coloring(self, group8):
        names = {e.algorithm for e in group8.entries}
        assert names == {
            "linear",
            "pairwise",
            "balanced",
            "greedy",
            "local",
            "coloring",
        }
        assert group8.lint_failures == []

    def test_every_gap_at_least_one(self, group8):
        for e in group8.entries:
            for backend, gap in e.gaps.items():
                assert gap >= 1.0 - 1e-9, (e.algorithm, backend, gap)

    def test_gaps_are_time_over_bound(self, group8):
        for e in group8.entries:
            for backend, t in e.times.items():
                assert e.gaps[backend] == pytest.approx(
                    t / group8.bound.seconds
                )

    def test_entry_lookup(self, group8):
        assert group8.entry("greedy").algorithm == "greedy"
        assert group8.entry("quantum") is None


class TestReport:
    def test_ok_on_sound_group(self, group8):
        report = OptgapReport(scale="test", groups=[group8])
        assert report.unsound == []
        assert report.lint_failures == []
        assert report.ok

    def test_detects_unsound_gap(self):
        bad = GroupGaps(name="bad", nprocs=4, bound=_dummy_bound())
        bad.entries.append(
            GapEntry(
                "greedy",
                times={"estimate": 1.0, "fluid": 1.0, "packet": 1.0},
                gaps={"estimate": 1.2, "fluid": 0.5, "packet": 1.1},
            )
        )
        report = OptgapReport(scale="test", groups=[bad])
        assert report.unsound == [("bad", "greedy", "fluid", 0.5)]
        assert not report.ok
        assert "UNSOUND" in render_optgap(report)

    def test_detects_lint_failure(self):
        bad = GroupGaps(name="bad", nprocs=4, bound=_dummy_bound())
        bad.lint_failures.append("greedy: duplicate transfer")
        report = OptgapReport(scale="test", groups=[bad])
        assert report.lint_failures == [("bad", "greedy: duplicate transfer")]
        assert not report.ok

    def test_local_wins_property(self, group8):
        report = OptgapReport(scale="test", groups=[group8])
        wins = report.local_wins
        local = group8.entry("local").times["fluid"]
        gs = group8.entry("greedy").times["fluid"]
        bs = group8.entry("balanced").times["fluid"]
        assert (group8.name in wins) == (local < gs and local < bs)


class TestArtifacts:
    def test_json_schema(self, group8):
        report = OptgapReport(scale="test", groups=[group8])
        doc = optgap_json(report)
        assert doc["schema"] == OPTGAP_SCHEMA
        assert doc["ok"] is True
        g = doc["groups"]["t/8"]
        assert g["bound"]["seconds"] > 0
        assert g["bound"]["binding"] in ("endpoint", "bisection")
        assert set(g["bound"]) == {
            "seconds",
            "endpoint",
            "endpoint_rank",
            "bisection",
            "bisection_cut",
            "binding",
        }
        assert g["bound"]["seconds"] == max(
            g["bound"]["endpoint"], g["bound"]["bisection"]
        )
        assert set(g["gaps"]) == set(g["times_ms"])
        json.dumps(doc)  # round-trips

    def test_write_creates_both_files(self, group8, tmp_path):
        report = OptgapReport(scale="test", groups=[group8])
        txt, js = write_optgap(report, results_dir=tmp_path)
        assert txt.exists() and js.exists()
        loaded = json.loads(js.read_text())
        assert loaded["schema"] == OPTGAP_SCHEMA
        assert "Optimality gaps" in txt.read_text()

    def test_render_mentions_every_group(self, group8):
        report = OptgapReport(scale="test", groups=[group8])
        text = render_optgap(report)
        assert "t/8" in text
        assert "OK:" in text


def _dummy_bound():
    pat = CommPattern.synthetic(4, 0.5, 64, seed=0)
    return makespan_lower_bound(pat, MachineConfig(4, CM5Params(routing_jitter=0.0)))
