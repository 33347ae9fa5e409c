"""Service chaos campaign: scenarios, invariants, report plumbing."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import validate_metrics_json
from repro.service.chaos import (
    SERVICE_CHAOS_SCHEMA,
    _KINDS,
    _make_scenario,
    _run_scenario,
    render_service_chaos,
    run_service_campaign,
    service_metrics_doc,
    write_service_chaos,
)


class TestScenarios:
    def test_seed_determinism(self):
        a = _make_scenario(9)
        b = _make_scenario(9)
        assert a == b

    def test_kinds_cycle_with_seed(self):
        kinds = [_make_scenario(s).kind for s in range(len(_KINDS))]
        assert kinds == list(_KINDS)

    def test_scenarios_are_service_sized(self):
        for seed in range(len(_KINDS)):
            sc = _make_scenario(seed)
            assert sc.nprocs in (8, 16)
            assert 1 <= len(sc.requests) <= 32
            assert sc.guard.breaker_threshold >= 1


class TestRuns:
    @pytest.mark.parametrize(
        "seed", [0, 3, 4, 5], ids=lambda s: _make_scenario(s).kind
    )
    def test_scenario_holds_every_invariant(self, seed):
        run = _run_scenario(seed, MetricsRegistry())
        assert run.violations == ()
        assert run.kind == _make_scenario(seed).kind
        assert run.requests >= 1
        # every request terminated: response or structured error
        assert run.responses + sum(run.errors.values()) == run.requests

    def test_inline_scenario_replays_from_its_seed(self):
        # One driver thread and no worker pool: nothing interleaves the
        # chaos hook's draws, so the seed pins the whole row.
        scenario = _make_scenario(1)
        assert (scenario.kind, scenario.threads, scenario.workers) == (
            "slow_build", 1, 0
        )
        first = _run_scenario(1, MetricsRegistry())
        assert _run_scenario(1, MetricsRegistry()) == first

    def test_corruption_scenario_quarantines(self, capsys):
        run = _run_scenario(5, MetricsRegistry())  # disk_corruption kind
        capsys.readouterr()
        assert run.kind == "disk_corruption"
        assert run.quarantined >= 1
        assert run.violations == ()


class TestCampaign:
    def test_small_campaign_report(self, capsys):
        report = run_service_campaign(runs=3)
        capsys.readouterr()
        assert report.total == 3
        assert report.ok
        doc = report.to_dict()
        assert doc["schema"] == SERVICE_CHAOS_SCHEMA
        assert doc["total"] == 3
        assert doc["violations"] == 0
        assert len(doc["runs"]) == 3
        json.dumps(doc)  # JSON-serializable throughout

    def test_metrics_doc_validates_against_frozen_names(self, capsys):
        registry = MetricsRegistry()
        report = run_service_campaign(runs=2, registry=registry)
        capsys.readouterr()
        # raises ValueError on any schema violation
        n_metrics, n_obs = validate_metrics_json(
            service_metrics_doc(registry, report.total)
        )
        assert n_metrics > 0
        assert n_obs > 0

    def test_render_mentions_every_run(self, capsys):
        report = run_service_campaign(runs=2)
        capsys.readouterr()
        text = render_service_chaos(report)
        for run in report.runs:
            assert run.kind in text
        assert "violations: 0" in text

    def test_write_produces_three_artifacts(self, tmp_path, capsys):
        registry = MetricsRegistry()
        report = run_service_campaign(runs=2, registry=registry)
        capsys.readouterr()
        from pathlib import Path

        txt, js, mx = write_service_chaos(report, registry, tmp_path)
        assert Path(txt).read_text().startswith("Service chaos campaign")
        doc = json.loads(Path(js).read_text())
        assert doc["schema"] == SERVICE_CHAOS_SCHEMA
        metrics = json.loads(Path(mx).read_text())
        n_metrics, _ = validate_metrics_json(metrics)
        assert n_metrics > 0

    def test_seed_base_offsets_the_scenarios(self, capsys):
        a = run_service_campaign(runs=1, seed_base=0)
        b = run_service_campaign(runs=1, seed_base=1)
        capsys.readouterr()
        assert a.runs[0].kind != b.runs[0].kind
