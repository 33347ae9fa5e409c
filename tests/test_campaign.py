"""Campaign core: report, ordered runner, render frame, artifact pair."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Tuple

import pytest

import repro
from repro.campaign import CampaignReport, render_report, run_specs, write_artifacts


@dataclass(frozen=True)
class ToyRun:
    seed: int
    value: int
    violations: Tuple[str, ...] = ()


def toy_run(seed: int) -> ToyRun:
    """Every third seed breaks the toy invariant ``value % 3 != 0``."""
    value = seed * seed
    bad = (f"value {value} divisible by 3",) if value % 3 == 0 else ()
    return ToyRun(seed, value, bad)


@pytest.mark.parametrize("jobs", [0, 2])
def test_runner_counts_violations_and_keeps_order(jobs):
    lines = []
    report = run_specs(
        "toy/1", toy_run, range(7), lambda r: f"seed {r.seed}", lines.append, jobs
    )
    assert [r.seed for r in report.runs] == list(range(7))
    assert report.total == 7
    assert [r.seed for r in report.violations] == [0, 3, 6]
    assert not report.ok
    assert lines == [
        f"seed {s} {'VIOLATION' if s % 3 == 0 else 'ok'}" for s in range(7)
    ]


def test_clean_campaign_is_ok_and_serializes_rows():
    report = run_specs("toy/1", toy_run, [1, 2], lambda r: "")
    assert report.ok
    assert report.to_dict() == {
        "schema": "toy/1",
        "total": 2,
        "violations": 0,
        "runs": [
            {"seed": 1, "value": 1, "violations": ()},
            {"seed": 2, "value": 4, "violations": ()},
        ],
    }


def test_render_frame():
    def render(report):
        return render_report(
            report, "Toy", "seed", lambda r: f"{r.seed:>4}", "toy invariant"
        )

    bad = CampaignReport("toy/1", [toy_run(s) for s in (2, 3)])
    assert render(bad) == "\n".join(
        [
            "Toy",
            "runs: 2   violations: 1",
            "",
            "seed",
            "   2",
            "   3",
            "      !! value 9 divisible by 3",
            "",
            "1 run(s) violated invariants",
        ]
    )
    good = CampaignReport("toy/1", [toy_run(2)])
    assert render(good).endswith("\n\nall invariants held: toy invariant")


def test_write_artifacts(tmp_path):
    txt, js = write_artifacts(tmp_path / "out", "toy", "text", {"b": 1, "a": [2]})
    assert txt == tmp_path / "out" / "toy.txt"
    assert txt.read_text() == "text\n"
    assert js.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert json.loads(js.read_text()) == {"a": [2], "b": 1}


def test_service_import_leaves_analysis_and_scipy_unloaded():
    """``import repro.service`` stays lean: the serving benchmark's peak
    RSS would carry SciPy and the analysis package otherwise."""
    probe = (
        "import sys, repro.service\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy'\n"
        "             or m.startswith('repro.analysis')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert out == "[]"
