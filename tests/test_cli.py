"""CLI smoke tests (quick mode)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from tests.schedules.test_serialize import _NON_INTEGER, non_integer_document


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.analysis.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_DEFAULT", None)
    yield


class TestCLI:
    def test_schedules_prints_paper_tables(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        for name in ("LEX", "PEX", "REX", "BEX", "LS", "PS", "BS", "GS"):
            assert name in out
        assert "Pattern 'P'" in out

    def test_table11_quick(self, capsys):
        assert main(["table11", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 11" in out and "greedy" in out

    def test_fig10_quick_with_csv(self, capsys, tmp_path):
        assert main(["fig10", "--quick", "--csv", str(tmp_path / "csv")]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        files = list((tmp_path / "csv").glob("*.csv"))
        assert len(files) == 1
        assert "series," in files[0].read_text()

    def test_fig5_quick(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_table12_quick(self, capsys):
        assert main(["table12", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "euler545" in out and "cg16k" in out

    def test_calibrate_quick(self, capsys):
        assert main(["calibrate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "model ms" in out and "best parameters" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["warp-drive"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_topology_quick(self, capsys):
        assert main(["topology", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fat-tree" in out and "MB/s" in out

    def test_gantt_quick(self, capsys):
        assert main(["gantt", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "LEX" in out and "PEX" in out and "#" in out

    def test_report_writes_file(self, tmp_path, monkeypatch, capsys):
        import repro.analysis.report as report

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            report, "build_experiments_markdown", lambda: "# stub\n"
        )
        assert main(["report"]) == 0
        assert (tmp_path / "EXPERIMENTS.md").read_text() == "# stub\n"


class TestValidateCommand:
    def test_generators_lint_clean(self, capsys):
        assert main(["validate", "--nprocs", "8"]) == 0
        out = capsys.readouterr().out
        for label in ("LEX", "PEX", "REX", "BEX", "LS", "PS", "BS", "GS"):
            assert f"OK {label}" in out
        assert "0 failing report(s)" in out

    def test_single_algorithm(self, capsys):
        assert main(["validate", "--algorithm", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "OK GS" in out
        assert "OK PEX" not in out

    def test_bad_algorithm_exits_2(self, capsys):
        assert main(["validate", "--algorithm", "quantum"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "quantum" in err and "\n" not in err.rstrip("\n")

    def test_bad_nprocs_exits_2(self, capsys):
        assert main(["validate", "--nprocs", "12"]) == 2
        err = capsys.readouterr().err
        assert "power of two" in err

    def test_deadlocked_schedule_file_rejected(self, tmp_path, capsys):
        from repro.schedules import save_schedule
        from tests.schedules.checks import Transfer, schedule_of

        path = tmp_path / "bad.json"
        steps = [[Transfer(0, 1, 64), Transfer(1, 0, 64), Transfer(2, 1, 64)]]
        save_schedule(schedule_of(3, steps, name="deadlocked"), path)
        with pytest.raises(SystemExit):
            main(["validate", "--schedule", str(path)])
        out = capsys.readouterr().out
        assert "deadlock.cycle" in out

    def test_good_schedule_file_accepted(self, tmp_path, capsys):
        from repro.schedules import pairwise_exchange, save_schedule

        path = tmp_path / "good.json"
        save_schedule(pairwise_exchange(8, 256), path)
        assert main(["validate", "--schedule", str(path)]) == 0
        assert "OK PEX" in capsys.readouterr().out

    def test_unreadable_schedule_file_exits_2(self, capsys):
        assert main(["validate", "--schedule", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["bool-nbytes", "float-nbytes", "float-nprocs", "float-ranks"]
    )
    def test_non_integer_schedule_file_exits_2(self, tmp_path, capsys, case):
        path = tmp_path / "typo.json"
        path.write_text(non_integer_document(case))
        assert main(["validate", "--schedule", str(path)]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert f"{_NON_INTEGER[case][1]} must be an integer" in lines[0]

    @pytest.mark.parametrize(
        "edit, status",
        [("none", 0), ("float-nbytes", 2), ("negative-nprocs", 2)],
    )
    def test_saved_schedule_file_in_a_fresh_interpreter(self, tmp_path, edit, status):
        # ``python -m repro validate --schedule FILE`` as a shell runs it:
        # exit 0 and a clean stderr, or exit 2 and exactly one error line.
        from repro.schedules import pairwise_exchange, schedule_to_json

        doc = json.loads(schedule_to_json(pairwise_exchange(8, 256)))
        if edit == "float-nbytes":
            doc["steps"][0][0][2] = 256.5
        elif edit == "negative-nprocs":
            doc.update(nprocs=-3, steps=[])
        path = tmp_path / "pex8.json"
        path.write_text(json.dumps(doc))
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "validate", "--schedule", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == status, proc.stderr
        lines = proc.stderr.splitlines()
        if status == 0:
            assert proc.stdout.startswith("OK PEX") and lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "OK" not in proc.stdout

    def test_schedule_file_past_the_step_cap_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # A document past the real cap (2**28 steps) would be hundreds
        # of megabytes, so the cap is lowered below PEX's 7 steps.
        from repro.schedules import pairwise_exchange, save_schedule
        from repro.schedules import schedule as schedule_module

        path = tmp_path / "long.json"
        save_schedule(pairwise_exchange(8, 64), path)
        monkeypatch.setattr(schedule_module, "MAX_STEPS", 6)
        assert main(["validate", "--schedule", str(path)]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "schedule has 7 steps, more than 6" in lines[0]

    def test_byte_count_outside_int64_exits_2(self, tmp_path, capsys):
        from repro.schedules import pairwise_exchange, schedule_to_json

        doc = json.loads(schedule_to_json(pairwise_exchange(4, 64)))
        doc["steps"][0][0][2] = 2**63
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--schedule", str(path)]) == 2
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "nbytes 9223372036854775808 does not fit int64" in lines[0]

    @pytest.mark.parametrize(
        "row, message",
        [
            ([4, 3, 8, 0, 0], "transfer 4->3 outside 0..3"),
            ([2, 9, 8, 0, 0], "transfer 2->9 outside 0..3"),
            ([-1, 3, 8, 0, 0], "transfer -1->3 outside 0..3"),
            ([2, 2, 8, 0, 0], "self-transfer at rank 2"),
            (
                [2, 3, -5, 0, 0],
                "negative byte count in Transfer(src=2, dst=3, nbytes=-5, "
                "pack_bytes=0, unpack_bytes=0)",
            ),
            (
                [2, 3, 8, -1, 0],
                "negative byte count in Transfer(src=2, dst=3, nbytes=8, "
                "pack_bytes=-1, unpack_bytes=0)",
            ),
            (
                [2, 3, 8, 0, -1],
                "negative byte count in Transfer(src=2, dst=3, nbytes=8, "
                "pack_bytes=0, unpack_bytes=-1)",
            ),
            ([2, 1, 16, 0, 0], "duplicate transfer 2->1 in step"),
        ],
        ids=[
            "src-past-nprocs",
            "dst-past-nprocs",
            "negative-rank",
            "self-transfer",
            "negative-nbytes",
            "negative-pack",
            "negative-unpack",
            "repeated-pair",
        ],
    )
    def test_gate_error_text_reaches_the_user(self, tmp_path, capsys, row, message):
        # The schedule gate's texts are what ``validate --schedule``
        # prints, one line after the file's name.
        doc = {
            "format": "repro-schedule",
            "version": 1,
            "name": "t",
            "nprocs": 4,
            "exchange_order": "lower_recv_first",
            "steps": [[[0, 1, 64, 0, 0], [1, 0, 64, 0, 0]], [row, [2, 1, 8, 0, 0]]],
        }
        path = tmp_path / "crafted.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--schedule", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: malformed schedule file {path}: malformed schedule document: {message}"
        ]


class TestConformanceCommand:
    def test_quick_conformance_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["conformance", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "zero ranking inversions" in out
        assert (tmp_path / "results" / "conformance.txt").exists()
        assert (tmp_path / "results" / "conformance.json").exists()


class TestOptgapCommand:
    def test_quick_optgap_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["optgap", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "every gap >= 1.0" in out
        assert (tmp_path / "results" / "optgap.txt").exists()
        js = tmp_path / "results" / "optgap.json"
        assert js.exists()
        import json

        doc = json.loads(js.read_text())
        assert doc["schema"] == "repro-optgap/2"
        assert doc["ok"] is True


class TestObservabilityCommands:
    def _export(self, tmp_path, capsys, nprocs="8"):
        out = tmp_path / "trace.json"
        assert (
            main(
                ["trace", "--nprocs", nprocs, "--nbytes", "128",
                 "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_trace_writes_valid_perfetto(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        doc = json.loads(out.read_text())
        assert doc["otherData"]["schema"] == "repro-trace/1"
        assert doc["traceEvents"]

    def test_trace_check_mode(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["trace", "--check", str(out)]) == 0
        assert "valid repro-trace/1" in capsys.readouterr().out

    def test_trace_check_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["trace", "--check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_trace_unknown_format_exits_2(self, capsys):
        assert main(["trace", "--format", "pprof"]) == 2
        assert "pprof" in capsys.readouterr().err

    def test_trace_unknown_algorithm_exits_2(self, capsys):
        assert main(["trace", "--algorithm", "warp"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_critpath_live_run_covers_makespan(self, capsys):
        assert main(["critpath", "--nprocs", "8", "--nbytes", "128"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out and "attribution:" in out

    def test_critpath_from_trace_file(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["critpath", "--trace", str(out)]) == 0
        assert "critical path:" in capsys.readouterr().out

    def test_critpath_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main(["critpath", "--trace", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_roottraffic_classifies_and_writes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["roottraffic", "--nprocs", "16", "--nbytes", "128"]) == 0
        out = capsys.readouterr().out
        assert "BEX" in out and "flat" in out
        assert "PEX" in out and "spiked" in out
        assert (tmp_path / "results" / "obs_root_traffic.txt").exists()
        doc = json.loads(
            (tmp_path / "results" / "obs_root_traffic.json").read_text()
        )
        assert doc["metric"] == "root_link_bytes_per_step"

    def test_gantt_renders_trace_file(self, tmp_path, capsys):
        out = self._export(tmp_path, capsys)
        assert main(["gantt", "--trace", str(out)]) == 0
        got = capsys.readouterr().out
        assert "BEX" in got and "receiver occupancy" in got

    def test_gantt_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main(["gantt", "--trace", str(tmp_path / "no.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_gantt_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert main(["gantt", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_gantt_default_includes_heatmap(self, capsys):
        assert main(["gantt", "--quick"]) == 0
        assert "link utilization" in capsys.readouterr().out


class TestChaosCLI:
    def test_quick_campaign_writes_reports(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        doc = json.loads((tmp_path / "results" / "chaos.json").read_text())
        assert doc["schema"] == "repro-chaos/1"
        assert doc["total"] == 20 and doc["violations"] == 0
        assert (tmp_path / "results" / "chaos.txt").exists()

    def test_probe_good_plan(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "faults": [
                        {"kind": "node_failure", "rank": 2, "at": 1e-3}
                    ],
                }
            )
        )
        assert main(["chaos", "--plan", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "failure rank 2" in out and "all invariants held" in out

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "message_delay", "probability": -0.5, "seconds": 1e-4},
            {"kind": "message_delay", "probability": 0.5, "seconds": -1e-4},
            {"kind": "link_degrade", "level": 1, "index": 0, "factor": -0.5},
            {"kind": "node_straggler", "rank": 0, "factor": 0.5},
            {"kind": "node_failure", "rank": -1, "at": 1e-3},
            {"kind": "warp_core_breach"},
        ],
    )
    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_invalid_plan_file_exits_2(self, tmp_path, capsys, command, fault):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [fault]}))
        assert main([command, "--plan", str(plan), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.rstrip("\n")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--straggler", "3:-2"],
            ["--straggler", "x:2"],
            ["--degrade", "1:2"],
            ["--degrade", "1:0:-0.5"],
            ["--drop", "1.5"],
            ["--delay", "0.5:-1e-4"],
            ["--straggler", "2:nan"],
            ["--delay", "0.5:nan"],
        ],
    )
    def test_invalid_fault_flag_exits_2(self, capsys, flags):
        assert main(["faults", "--quick", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flags[0]} wants ")
        assert "\n" not in captured.err.rstrip("\n")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--straggler", "99:2"],
            ["--straggler", "8:2"],
            ["--degrade", "1:8:0.5"],
            ["--degrade", "2:2:0.5"],
            ["--degrade", "3:0:0.5"],
        ],
    )
    def test_fault_flag_outside_the_machine_exits_2(self, capsys, flags):
        # --quick runs on 8 nodes: ranks 0..7, links L1#0..7 and L2#0..1.
        assert main(["faults", "--quick", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]} wants ")
        assert "8-node" in err
        assert "\n" not in err.rstrip("\n")

    def test_fault_flags_at_the_machine_edge_run(self, capsys):
        flags = ["--straggler", "7:2", "--degrade", "2:1:0.5"]
        assert main(["faults", "--quick", *flags]) == 0
        out = capsys.readouterr().out
        assert "straggler rank 7" in out and "L2#1" in out

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "node_straggler", "rank": 500, "factor": 2.0},
            {"kind": "node_failure", "rank": 16, "at": 1e-3},
            {"kind": "link_degrade", "level": 9, "index": 0, "factor": 0.5},
            {"kind": "link_degrade", "level": 1, "index": 16, "factor": 0.5},
        ],
    )
    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_plan_outside_the_machine_exits_2(
        self, tmp_path, capsys, command, fault
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [fault]}))
        assert main([command, "--plan", str(plan), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid fault plan")
        assert "-node" in err
        assert "\n" not in err.rstrip("\n")

    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_missing_plan_file_exits_2(self, tmp_path, capsys, command):
        missing = tmp_path / "no-such-plan.json"
        assert main([command, "--plan", str(missing), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read" in err

    @pytest.mark.parametrize("command", ["faults", "chaos"])
    def test_malformed_json_plan_exits_2(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        assert main([command, "--plan", str(plan), "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "malformed" in err


class TestCampaignViolationsExit1:
    """A campaign that catches an invariant violation is a failed check.

    It exits 1 (not 2, the usage-error code) and leaves its artifacts
    behind.  One run of each path is wrapped to report a synthetic
    violation.
    """

    @staticmethod
    def _violate_first(monkeypatch, module, name):
        import dataclasses

        real = getattr(module, name)
        seen = []

        def wrapped(*args, **kwargs):
            run = real(*args, **kwargs)
            seen.append(run)
            if len(seen) > 1:
                return run
            return dataclasses.replace(
                run, violations=run.violations + ("synthetic: injected",)
            )

        monkeypatch.setattr(module, name, wrapped)

    def _exit_code(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    def test_chaos_campaign(self, tmp_path, monkeypatch, capsys):
        import repro.resilience.chaos as chaos

        monkeypatch.chdir(tmp_path)
        self._violate_first(monkeypatch, chaos, "_run_one")
        assert self._exit_code(["chaos", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "!! synthetic: injected" in out
        assert "1 run(s) violated invariants" in out
        doc = json.loads((tmp_path / "results" / "chaos.json").read_text())
        assert doc["violations"] == 1
        assert (tmp_path / "results" / "chaos.txt").exists()

    def test_chaos_plan_probe(self, tmp_path, monkeypatch, capsys):
        import repro.resilience.chaos as chaos

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 3, "faults": []}))
        self._violate_first(monkeypatch, chaos, "_run_one")
        assert self._exit_code(["chaos", "--plan", str(plan)]) == 1
        assert "!! synthetic: injected" in capsys.readouterr().out

    def test_serve_chaos_campaign(self, tmp_path, monkeypatch, capsys):
        import repro.service.chaos as service_chaos

        monkeypatch.chdir(tmp_path)
        self._violate_first(monkeypatch, service_chaos, "_run_scenario")
        assert self._exit_code(["serve-chaos", "--runs", "2"]) == 1
        out = capsys.readouterr().out
        assert "!! synthetic: injected" in out
        results = tmp_path / "results"
        doc = json.loads((results / "service_chaos.json").read_text())
        assert doc["violations"] == 1
        assert (results / "service_chaos.txt").exists()
        assert (results / "service_chaos_metrics.json").exists()


class TestMetricsCommand:
    def test_prom_exposition_to_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        assert (
            main(
                ["metrics", "--format", "prom", "--nprocs", "8",
                 "--nbytes", "128", "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE sim_messages counter" in text
        assert main(["metrics", "--format", "prom", "--check", str(out)]) == 0
        assert "valid prom exposition" in capsys.readouterr().out

    def test_json_snapshot_validates(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert (
            main(
                ["metrics", "--format", "json", "--nprocs", "8",
                 "--nbytes", "128", "--out", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-metrics/1"
        assert doc["meta"]["nprocs"] == 8
        assert main(["metrics", "--check", str(out)]) == 0

    def test_bare_check_validates_inline(self, capsys):
        assert (
            main(
                ["metrics", "--format", "prom", "--nprocs", "8",
                 "--nbytes", "128", "--check"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "prom exposition valid" in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["state"].__setitem__("sum", [1, 0]),
            lambda h: h["state"].pop("sum"),
            lambda h: h["state"].__setitem__("buckets", None),
            lambda h: h.__setitem__("state", 5),
            lambda h: h["state"].__setitem__("sum", [1, 3]),
        ],
        ids=["zero-denominator", "missing-sum", "null-buckets", "int-state",
             "odd-denominator"],
    )
    def test_check_rejects_malformed_histogram_state(self, tmp_path, capsys, edit):
        """A broken histogram state is a usage error: one line, exit 2."""
        from repro.obs import metrics_to_json
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for v in (0.25, 3e-5):
            registry.histogram("service.latency").observe(v)
        doc = metrics_to_json(registry)
        out = tmp_path / "metrics.json"
        out.write_text(json.dumps(doc))
        assert main(["metrics", "--check", str(out)]) == 0
        edit(doc["histograms"]["service.latency"])
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", "--check", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.prom"
        bad.write_text("metric one two\n")
        assert main(["metrics", "--format", "prom", "--check", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_format_exits_2(self, capsys):
        assert main(["metrics", "--format", "pprof"]) == 2
        assert "pprof" in capsys.readouterr().err

    def test_trace_bare_check_needs_file(self, capsys):
        assert main(["trace", "--check"]) == 2
        assert "FILE" in capsys.readouterr().err


class TestUsageErrors:
    """Each command takes only its own options; bad input exits 2."""

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        return captured

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--nprocs", "64"],
            ["validate", "--nbytes", "9"],
            ["validate", "--jobs", "4"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = self._one_error_line(capsys)
        assert argv[1] in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "command", ["trace", "critpath", "roottraffic", "metrics"]
    )
    def test_negative_nbytes_exits_2(self, capsys, command):
        assert main([command, "--nprocs", "8", "--nbytes", "-5"]) == 2
        captured = self._one_error_line(capsys)
        assert "--nbytes" in captured.err and captured.out == ""

    def test_validate_algorithm_choices(self):
        from repro.cli import OPTIONS

        _, spec = OPTIONS["lint_algorithm"]
        assert tuple(spec["choices"]) == (
            "linear", "pairwise", "recursive", "balanced", "greedy", "local"
        )

    @staticmethod
    def _blocked(tmp_path):
        # A path under a regular file: creating or writing it fails.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return blocker / "sub"

    def test_unwritable_csv_dir_exits_2(self, tmp_path, capsys):
        csv = self._blocked(tmp_path)
        assert main(["fig10", "--quick", "--csv", str(csv)]) == 2
        assert "cannot write" in self._one_error_line(capsys).err

    def test_unwritable_csv_dir_fails_before_the_sweep(self, tmp_path, capsys):
        # Checked while parsing: nothing is simulated or printed first.
        csv = self._blocked(tmp_path)
        assert main(["fig10", "--quick", "--csv", str(csv)]) == 2
        captured = self._one_error_line(capsys)
        assert "--csv" in captured.err and captured.out == ""

    def test_unwritable_trace_out_exits_2(self, tmp_path, capsys):
        out = self._blocked(tmp_path) / "trace.json"
        argv = ["trace", "--nprocs", "8", "--nbytes", "128", "--out", str(out)]
        assert main(argv) == 2
        assert "cannot write" in self._one_error_line(capsys).err

    def test_unwritable_metrics_out_exits_2(self, tmp_path, capsys):
        out = self._blocked(tmp_path) / "metrics.json"
        argv = ["metrics", "--nprocs", "8", "--nbytes", "128", "--out", str(out)]
        assert main(argv) == 2
        assert "cannot write" in self._one_error_line(capsys).err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--nprocs", "8"],
            ["metrics", "--nprocs", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, argv):
        # Checked while parsing: nothing is simulated or printed first.
        out = self._blocked(tmp_path) / "artifact.txt"
        assert main([*argv, "--out", str(out)]) == 2
        captured = self._one_error_line(capsys)
        assert "--out" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--out", "{dir}/x.json", "--nbytes", "-1"],
            ["fig5", "--csv", "{dir}", "--nprocs", "64"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_rejected_command_creates_no_directory(self, tmp_path, capsys, argv):
        # The output directory is probed, not created, while parsing.
        made = tmp_path / "zz"
        argv = [arg.format(dir=made / "sub") for arg in argv]
        assert main(argv) == 2
        self._one_error_line(capsys)
        assert not made.exists()
