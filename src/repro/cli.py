"""Command-line interface: regenerate any of the paper's exhibits.

Usage::

    python -m repro <experiment> [--quick] [--csv DIR]
    cm5-repro table11

Experiments: ``schedules`` (Tables 1-4, 6-10), ``fig5``, ``fig6``,
``fig7``, ``fig8``, ``table5``, ``fig10``, ``fig11``, ``table11``,
``table12``, ``calibrate``, ``all``.  ``--quick`` shrinks sweeps to
small machines for a fast smoke run; ``--csv DIR`` additionally writes
figure data as CSV files.

Performance: ``perf`` times the canonical hot-path workloads and writes
``BENCH_sim.json``; ``perfcmp`` diffs two such files and exits non-zero
on wall-clock regressions (see ``--baseline/--current/--threshold``);
``serve-bench`` drives the scheduling service under a Zipf request
stream and writes ``BENCH_service.json`` (see
``--requests/--corpus/--skew/--arrival/--jobs``).

Validation: ``validate`` lints generator schedules (or ``--schedule
FILE``) for conservation, deadlock-freedom and payload-mode staging;
``conformance`` runs the canonical workloads through all three cost
backends and fails on ranking inversions or drift (artifacts land in
``results/conformance.{txt,json}``); ``optgap`` divides every irregular
scheduler's measured makespans by the flow/LP lower bounds and fails if
any gap dips below 1.0 (artifacts land in ``results/optgap.{txt,json}``).

Observability: ``trace`` runs one seeded exchange under the tracer and
exports a Perfetto/Chrome trace-event JSON (``--check FILE`` validates
an existing export instead); ``critpath`` walks the simulated critical
path and attributes it to wire/wait/local/sync time (``--trace FILE``
analyzes an export); ``roottraffic`` writes the per-step root-link byte
series behind the BEX-vs-PEX argument; ``gantt --trace FILE`` renders
an exported trace instead of running; ``metrics`` exposes a traced
run's metric registry as Prometheus text or a ``repro-metrics/1`` JSON
snapshot (``--format prom|json``, ``--check`` validates); ``profile``
attributes the engine hot loop per message (``--mode phases``) or emits
collapsed-stack flamegraph samples (``--mode sample``).

Exit status: 0 success, 1 check failure (lint / conformance / perfcmp),
2 usage error (bad ``--algorithm``/``--nprocs``, unreadable files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional

from .analysis import paper_data
from .analysis.experiments import (
    fig5_data,
    fig678_data,
    fig10_data,
    fig11_data,
    table5_data,
    table11_data,
    table12_data,
)
from .analysis.figures import FigureData
from .analysis.tables import format_comparison, format_table
from .schedules import (
    balanced_exchange,
    balanced_schedule,
    greedy_schedule,
    linear_exchange,
    linear_schedule,
    paper_pattern_P,
    pairwise_exchange,
    pairwise_schedule,
    recursive_exchange,
)

__all__ = ["main", "CLIError"]


class CLIError(Exception):
    """A user-input problem: report one line on stderr and exit 2."""


#: Algorithm names `validate --algorithm` accepts: the union of the
#: regular-exchange builders and the irregular registry.
_VALIDATE_ALGORITHMS = (
    "linear",
    "pairwise",
    "recursive",
    "balanced",
    "greedy",
    "local",
)


def _parse_nprocs(value: int) -> int:
    """Partition sizes must be powers of two >= 2 (CM-5 allocation rule)."""
    if value < 2 or value & (value - 1):
        raise CLIError(
            f"--nprocs must be a power of two >= 2 (CM-5 partition rule), "
            f"got {value}"
        )
    return value


def _emit_figure(fig: FigureData, csv_dir: Optional[Path]) -> None:
    print(fig.render())
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        slug = fig.name.split(":")[0].strip().lower().replace(" ", "_")
        path = csv_dir / f"{slug}.csv"
        path.write_text(fig.to_csv())
        print(f"[csv written to {path}]")


def cmd_schedules(args: argparse.Namespace) -> None:
    """Tables 1-4 and 6-10: the 8-processor example schedules."""
    for sched in (
        linear_exchange(8, 1),
        pairwise_exchange(8, 1),
        recursive_exchange(8, 1),
        balanced_exchange(8, 1),
    ):
        print(sched.render_table())
        print()
    pattern = paper_pattern_P()
    print("Pattern 'P' (Table 6):")
    print(pattern.matrix)
    print()
    for builder in (linear_schedule, pairwise_schedule, balanced_schedule, greedy_schedule):
        print(builder(pattern).render_table())
        print()


def cmd_fig5(args: argparse.Namespace) -> None:
    nprocs = 8 if args.quick else 32
    sizes = (0, 256, 1024) if args.quick else None
    fig = fig5_data(sizes=sizes or fig5_sizes_default(), nprocs=nprocs)
    _emit_figure(fig, args.csv)


def fig5_sizes_default():
    from .analysis.experiments import FIG5_SIZES

    return FIG5_SIZES


def _fig678(args: argparse.Namespace, nbytes_list: List[int]) -> None:
    machines = (4, 8, 16) if args.quick else None
    for nbytes in nbytes_list:
        kwargs = {} if machines is None else {"machines": machines}
        fig = fig678_data(nbytes, **kwargs)
        _emit_figure(fig, args.csv)


def cmd_fig6(args: argparse.Namespace) -> None:
    _fig678(args, [0, 256])


def cmd_fig7(args: argparse.Namespace) -> None:
    _fig678(args, [512])


def cmd_fig8(args: argparse.Namespace) -> None:
    _fig678(args, [1920])


def cmd_table5(args: argparse.Namespace) -> None:
    machines = (8,) if args.quick else (32, 256)
    arrays = (256, 512) if args.quick else (256, 512, 1024, 2048)
    data = table5_data(machine_sizes=machines, array_sizes=arrays)
    blocks = []
    for (p, n), row in sorted(data.items()):
        paper = paper_data.TABLE5_FFT_SECONDS.get((p, n))
        blocks.append((f"P={p} {n}x{n}", row, paper))
    print(
        format_comparison(
            "Table 5: 2-D FFT (seconds)",
            paper_data.EXCHANGE_ORDER,
            blocks,
            unit="s",
        )
    )


def cmd_fig10(args: argparse.Namespace) -> None:
    nprocs = 8 if args.quick else 32
    fig = fig10_data(nprocs=nprocs)
    _emit_figure(fig, args.csv)


def cmd_fig11(args: argparse.Namespace) -> None:
    machines = (4, 8, 16) if args.quick else None
    kwargs = {} if machines is None else {"machines": machines}
    fig = fig11_data(**kwargs)
    _emit_figure(fig, args.csv)


def cmd_table11(args: argparse.Namespace) -> None:
    nprocs = 8 if args.quick else 32
    data = table11_data(nprocs=nprocs)
    blocks = []
    for (d, s), row in sorted(data.items()):
        paper = (
            paper_data.TABLE11_SYNTHETIC_MS.get((d, s))
            if nprocs == 32
            else None
        )
        measured_ms = {k: v * 1e3 for k, v in row.items()}
        blocks.append((f"{d:.0%} {s}B", measured_ms, paper))
    print(
        format_comparison(
            f"Table 11: synthetic irregular patterns on {nprocs} processors (ms)",
            paper_data.IRREGULAR_ORDER,
            blocks,
        )
    )


def cmd_table12(args: argparse.Namespace) -> None:
    nprocs = 8 if args.quick else 32
    times, loads = table12_data(nprocs=nprocs)
    blocks = []
    for name, row in times.items():
        paper = paper_data.TABLE12_REAL_MS.get(name) if nprocs == 32 else None
        measured_ms = {k: v * 1e3 for k, v in row.items()}
        blocks.append((name, measured_ms, paper))
    print(
        format_comparison(
            f"Table 12: real application patterns on {nprocs} processors (ms)",
            paper_data.IRREGULAR_ORDER,
            blocks,
        )
    )
    print()
    for name, wl in loads.items():
        print(" ", wl.describe())


#: Exchange builders the observability commands can run directly.
_OBS_BUILDERS = {
    "linear": linear_exchange,
    "pairwise": pairwise_exchange,
    "recursive": recursive_exchange,
    "balanced": balanced_exchange,
}


def _obs_run(algorithm: str, nprocs: int, nbytes: int):
    """One seeded, traced exchange run; returns ``(tracer, result)``."""
    from . import obs
    from .machine import CM5Params, MachineConfig
    from .schedules import execute_schedule

    build = _OBS_BUILDERS.get(algorithm)
    if build is None:
        raise CLIError(
            f"unknown --algorithm {algorithm!r} for tracing; choose from "
            f"{', '.join(_OBS_BUILDERS)}"
        )
    cfg = MachineConfig(nprocs, CM5Params(routing_jitter=0.0))
    with obs.tracing() as tracer:
        res = execute_schedule(build(nprocs, nbytes), cfg, trace=True)
    return tracer, res


def cmd_trace(args: argparse.Namespace) -> None:
    """Trace one exchange and export Perfetto JSON (or ``--check`` a file)."""
    from .obs import build_perfetto, load_perfetto, write_perfetto

    if args.check is not None:
        if not isinstance(args.check, str):
            raise CLIError("trace --check needs a FILE to validate")
        try:
            doc = load_perfetto(args.check)
        except ValueError as exc:
            raise CLIError(str(exc))
        print(
            f"{args.check}: valid {doc['otherData']['schema']} trace, "
            f"{len(doc['traceEvents'])} events"
        )
        return
    if args.format != "perfetto":
        raise CLIError(
            f"unknown --format {args.format!r}; only 'perfetto' is supported"
        )
    algo = args.algorithm or "balanced"
    nprocs = _parse_nprocs(args.nprocs)
    tracer, res = _obs_run(algo, nprocs, args.nbytes)
    doc = build_perfetto(tracer, trace=res.sim.trace)
    out = Path(args.out or f"results/trace_{algo}_n{nprocs}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_perfetto(doc, out)
    print(f"{algo} n={nprocs} b={args.nbytes}: {res.time_ms:.3f} ms simulated")
    print(f"[perfetto trace written to {out}: {len(doc['traceEvents'])} events]")
    print("open in https://ui.perfetto.dev or chrome://tracing")


def cmd_metrics(args: argparse.Namespace) -> None:
    """Run one traced exchange and expose its metrics registry.

    ``--format prom`` emits Prometheus text exposition, ``--format
    json`` the ``repro-metrics/1`` snapshot (the default).  ``--check``
    validates the emitted document structurally before writing it;
    ``--check FILE`` instead validates an existing metrics artifact and
    runs nothing.  ``--out FILE`` writes the document (default stdout).
    """
    from .obs import (
        check_prom,
        metrics_to_json,
        render_prom,
        validate_metrics_json,
    )

    fmt = "json" if args.format == "perfetto" else args.format
    if fmt not in ("prom", "json"):
        raise CLIError(
            f"unknown --format {fmt!r} for metrics; choose 'prom' or 'json'"
        )
    if isinstance(args.check, str):
        try:
            text = Path(args.check).read_text()
        except OSError as exc:
            raise CLIError(f"cannot read metrics file {args.check}: {exc}")
        try:
            if fmt == "prom":
                metrics, samples = check_prom(text)
            else:
                import json as _json

                metrics, samples = validate_metrics_json(_json.loads(text))
        except ValueError as exc:
            raise CLIError(f"{args.check}: {exc}")
        print(f"{args.check}: valid {fmt} exposition, "
              f"{metrics} metric(s), {samples} sample(s)")
        return

    algo = args.algorithm or "balanced"
    nprocs = _parse_nprocs(args.nprocs)
    tracer, res = _obs_run(algo, nprocs, args.nbytes)
    meta = {
        "algorithm": algo,
        "nprocs": nprocs,
        "nbytes": args.nbytes,
        "sim_ms": res.time_ms,
    }
    if fmt == "prom":
        text = render_prom(tracer.metrics)
        if args.check:
            metrics, samples = check_prom(text)
            print(
                f"# prom exposition valid: {metrics} metric(s), "
                f"{samples} sample(s)",
                file=sys.stderr,
            )
    else:
        import json as _json

        doc = metrics_to_json(tracer.metrics, meta=meta)
        if args.check:
            validate_metrics_json(doc)
            print("# json snapshot valid", file=sys.stderr)
        text = _json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"[metrics written to {out}]")
    else:
        print(text, end="")


def cmd_profile(args: argparse.Namespace) -> None:
    """Profile one perf workload's hot loop (`--mode phases|sample`).

    ``phases`` (default) counts interpreter-level calls per engine phase
    under :func:`sys.setprofile`, prints the per-message attribution
    table, and exits 1 if the attributed total drifts more than 10 %
    from a direct plain-counter run — the determinism contract.
    ``sample`` takes wall-clock stack samples and writes collapsed
    stacks for flamegraph tools.  ``--workload`` names any perf
    workload (default ``pex_n256_b512``); ``--out`` overrides the
    artifact path under ``results/``.
    """
    from .obs import prof

    workload = args.workload
    known = prof.profile_workload_names()
    if workload not in known:
        raise CLIError(
            f"unknown --workload {workload!r}; choose from {', '.join(known)}"
        )
    results = Path("results")
    if args.mode == "phases":
        print(f"profiling {workload} (phase counters)...")
        report = prof.run_phase_profile(workload)
        table = prof.render_phase_table(report)
        out = Path(args.out or results / f"profile_{workload}.txt")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table)
        print(table, end="")
        print(f"[attribution table written to {out}]")
        if report.direct_total:
            delta = abs(report.total - report.direct_total) / report.direct_total
            if delta > 0.10:
                print(
                    f"profile: attributed total drifts {delta:.1%} from the "
                    "direct count (limit 10%)",
                    file=sys.stderr,
                )
                raise SystemExit(1)
    elif args.mode == "sample":
        if args.interval <= 0:
            raise CLIError(
                f"--interval must be positive seconds, got {args.interval}"
            )
        print(f"profiling {workload} (sampling every {args.interval * 1e3:g} ms)...")
        lines, taken, wall = prof.run_sampling_profile(
            workload, interval=args.interval
        )
        out = Path(args.out or results / f"flame_{workload}.txt")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"{taken} samples over {wall:.1f}s, "
            f"{len(lines)} distinct stacks"
        )
        print(f"[collapsed stacks written to {out}; feed to flamegraph.pl "
              "or speedscope]")
    else:
        raise CLIError(
            f"unknown --mode {args.mode!r}; choose 'phases' or 'sample'"
        )


def cmd_critpath(args: argparse.Namespace) -> None:
    """Critical-path attribution of one traced run (or a ``--trace`` file).

    Exits 1 when the backward walk fails to cover the makespan — that
    would mean the causal chain in the trace is broken.
    """
    from .obs import (
        critical_path,
        load_perfetto,
        ops_from_perfetto,
        render_critical_path,
    )

    if args.trace is not None:
        try:
            doc = load_perfetto(args.trace)
        except ValueError as exc:
            raise CLIError(str(exc))
        rank_ops, makespan = ops_from_perfetto(doc)
        if not rank_ops:
            raise CLIError(f"trace file {args.trace} contains no rank ops")
    else:
        algo = args.algorithm or "balanced"
        nprocs = _parse_nprocs(args.nprocs)
        tracer, res = _obs_run(algo, nprocs, args.nbytes)
        rank_ops, makespan = tracer.rank_ops, tracer.meta["makespan"]
        print(f"{algo} n={nprocs} b={args.nbytes}: {res.time_ms:.3f} ms simulated")
    cp = critical_path(rank_ops, makespan)
    print(render_critical_path(cp))
    if not cp.complete or abs(cp.length - makespan) > 1e-9 * max(1.0, makespan):
        raise SystemExit(1)


def cmd_roottraffic(args: argparse.Namespace) -> None:
    """Per-step root-link bytes: BEX flat vs PEX spiked (paper 3.4)."""
    from .obs import (
        render_root_traffic,
        root_traffic_from_trace,
        write_root_traffic,
    )

    nprocs = _parse_nprocs(args.nprocs)
    results = []
    for algo, label in (("balanced", "BEX"), ("pairwise", "PEX")):
        _, res = _obs_run(algo, nprocs, args.nbytes)
        results.append(
            root_traffic_from_trace(res.sim.trace.messages, label, nprocs)
        )
    print(render_root_traffic(results))
    txt, js = write_root_traffic(results)
    print(f"[written to {txt} and {js}]")


def cmd_gantt(args: argparse.Namespace) -> None:
    """Receiver-occupancy Gantt of LEX vs PEX — the pathology, visually.

    ``--trace FILE`` renders a previously exported Perfetto trace
    instead of running; unreadable or malformed input exits 2 with a
    one-line error.
    """
    from .analysis.visualize import render_link_heatmap, render_message_gantt

    if args.trace is not None:
        from .obs import load_perfetto, messages_from_perfetto
        from .sim.trace import Trace

        try:
            doc = load_perfetto(args.trace)
        except ValueError as exc:
            raise CLIError(str(exc))
        messages = messages_from_perfetto(doc)
        if not messages:
            raise CLIError(f"trace file {args.trace} contains no message events")
        other = doc.get("otherData", {})
        nprocs = int(
            other.get("nprocs") or max(max(m.src, m.dst) for m in messages) + 1
        )
        label = other.get("algorithm") or Path(args.trace).name
        print(f"{label}: {len(messages)} messages from {args.trace}")
        print(render_message_gantt(Trace(messages=messages), nprocs, width=64))
        return

    from . import obs
    from .machine import CM5Params, MachineConfig
    from .schedules import execute_schedule

    n = 8 if args.quick else 16
    cfg = MachineConfig(n, CM5Params(routing_jitter=0.0))
    for build, label in ((linear_exchange, "LEX"), (pairwise_exchange, "PEX")):
        with obs.tracing() as tracer:
            res = execute_schedule(build(n, 256), cfg, trace=True)
        print(f"{label}: {res.time_ms:.3f} ms")
        print(render_message_gantt(res.sim.trace, n, width=64))
        if tracer.link_util is not None:
            print(render_link_heatmap(tracer.link_util, width=64))
        print()


def cmd_report(args: argparse.Namespace) -> None:
    """Regenerate EXPERIMENTS.md from live (cache-backed) measurements."""
    from .analysis.report import build_experiments_markdown

    text = build_experiments_markdown()
    out = Path("EXPERIMENTS.md")
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")


def cmd_topology(args: argparse.Namespace) -> None:
    from .analysis.visualize import render_fat_tree
    from .machine import MachineConfig

    sizes = (8, 16) if args.quick else (32, 256)
    for n in sizes:
        print(render_fat_tree(MachineConfig(n)))
        print()


def _load_plan_file(path: str, config):
    """Load and validate a FaultPlan JSON file, with CLI-grade errors.

    A missing file, malformed JSON, an unknown fault kind, an
    out-of-range field (negative probability/seconds, zero factor, ...)
    or a rank or link the machine ``config`` does not have all surface
    as a one-line :class:`CLIError` (exit code 2) instead of a
    traceback.
    """
    from json import JSONDecodeError

    from .faults import FaultPlan

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CLIError(f"cannot read fault plan {path}: {exc}")
    try:
        plan = FaultPlan.from_json(text)
        plan.check_machine(config)
    except JSONDecodeError as exc:
        raise CLIError(f"malformed fault plan {path}: {exc}")
    except (ValueError, TypeError) as exc:
        raise CLIError(f"invalid fault plan {path}: {exc}")
    return plan


def _parse_fault_plan(args: argparse.Namespace, config):
    """Build a FaultPlan for machine ``config`` from the fault options."""
    from .faults import (
        FaultPlan,
        LinkDegrade,
        MessageDelay,
        MessageDrop,
        NodeStraggler,
    )

    if args.plan is not None:
        return _load_plan_file(args.plan, config)

    def flag_fault(flag: str, form: str, spec: Any, parse: Callable):
        # Malformed numbers, wrong arity, out-of-range fields and ranks
        # or links the machine lacks all surface as one CLIError line
        # instead of a traceback.
        try:
            fault = parse(spec)
            FaultPlan((fault,)).check_machine(config)
            return fault
        except ValueError as exc:
            raise CLIError(f"{flag} wants {form}, got {spec!r}: {exc}") from None

    def straggler(spec: str):
        rank, _, factor = spec.partition(":")
        return NodeStraggler(int(rank), float(factor or 8.0))

    def degrade(spec: str):
        level, index, factor = spec.split(":")
        return LinkDegrade(int(level), int(index), float(factor))

    def delay(spec: str):
        prob, _, seconds = spec.partition(":")
        return MessageDelay(float(prob), float(seconds or 500e-6))

    faults = [
        flag_fault("--straggler", "RANK:FACTOR", spec, straggler)
        for spec in args.straggler or ()
    ]
    faults += [
        flag_fault("--degrade", "LEVEL:INDEX:FACTOR", spec, degrade)
        for spec in args.degrade or ()
    ]
    if args.drop:
        faults.append(flag_fault("--drop", "PROB", args.drop, MessageDrop))
    if args.delay:
        faults.append(flag_fault("--delay", "PROB[:SECONDS]", args.delay, delay))
    if not faults:
        # Default demo: one 8x straggler mid-machine plus light loss.
        faults = [NodeStraggler(5, 8.0), MessageDrop(0.02)]
    return FaultPlan(tuple(faults), seed=args.fault_seed)


def cmd_faults(args: argparse.Namespace) -> None:
    """Degraded-mode demo: healthy vs faulty vs repaired schedules.

    Runs the four complete-exchange algorithms (and greedy on the same
    pattern) under a fault plan given by ``--straggler/--degrade/--drop/
    --delay`` (or ``--plan FILE``), printing healthy time, degraded
    time, repaired-schedule time, and retry counts.
    """
    from .machine import CM5Params, MachineConfig
    from .schedules import (
        CommPattern,
        ScheduleError,
        balanced_exchange,
        execute_schedule,
        greedy_schedule,
        pairwise_exchange,
        recursive_exchange,
        repair_schedule,
    )

    n = 8 if args.quick else 32
    nbytes = 256 if args.quick else 512
    cfg = MachineConfig(n, CM5Params(routing_jitter=0.0))
    plan = _parse_fault_plan(args, cfg)
    print(f"fault plan: {plan.describe()}  (seed {plan.seed}, {n} nodes)")
    print(f"{'algorithm':<10} {'healthy':>10} {'faulty':>10} {'repaired':>10} {'retries':>8}")
    builders = [
        ("PEX", lambda: pairwise_exchange(n, nbytes)),
        ("BEX", lambda: balanced_exchange(n, nbytes)),
        ("REX", lambda: recursive_exchange(n, nbytes)),
        ("GS", lambda: greedy_schedule(CommPattern.complete_exchange(n, nbytes))),
    ]
    for label, build in builders:
        sched = build()
        base = execute_schedule(sched, cfg).time_ms
        faulty = execute_schedule(sched, cfg, faults=plan, trace=True)
        try:
            repaired_sched = repair_schedule(sched, plan, cfg)
            repaired = execute_schedule(repaired_sched, cfg, faults=plan)
            repaired_ms = f"{repaired.time_ms:10.3f}"
        except ScheduleError:
            # Store-and-forward (REX) cannot be re-sequenced.
            repaired_ms = f"{'n/a':>10}"
        retries = faulty.sim.trace.summary().retry_count
        print(
            f"{label:<10} {base:10.3f} {faulty.time_ms:10.3f} "
            f"{repaired_ms} {retries:8d}"
        )


def cmd_chaos(args: argparse.Namespace) -> None:
    """Chaos campaign: random fault plans vs. the adaptive executor.

    Sweeps seeded random fault plans (stragglers, degraded links,
    message delays/drops, node failures) over machine sizes and
    scheduling algorithms, checking termination, byte conservation,
    makespan bounds, and byte-identical replay on every run.  Results
    land in ``results/chaos.{txt,json}``.  ``--quick`` runs the
    CI-sized 20-run grid; ``--plan FILE`` probes one specific plan
    through the same invariant battery instead.
    """
    from .machine import MachineConfig
    from .resilience import probe_plan, render_chaos, run_campaign, write_chaos

    if args.plan is not None:
        nprocs = 16
        plan = _load_plan_file(args.plan, MachineConfig(nprocs))
        run = probe_plan(plan, nprocs)
        print(f"plan: {plan.describe()}  (seed {plan.seed})")
        print(
            f"N={run.nprocs} {run.algorithm}: makespan "
            f"{run.makespan * 1e3:.3f} ms (healthy {run.healthy * 1e3:.3f} ms,"
            f" bound {run.bound * 1e3:.3f} ms)"
        )
        if not run.ok:
            raise CLIError(
                "invariant violations: " + "; ".join(run.violations)
            )
        print("all invariants held")
        return
    if args.jobs < 0:
        raise CLIError(f"--jobs must be >= 0, got {args.jobs}")
    report = run_campaign(
        quick=args.quick, seed_base=args.fault_seed, jobs=args.jobs
    )
    txt, js = write_chaos(report, "results")
    print(render_chaos(report))
    print(f"[chaos report written to {txt} and {js}]")
    if not report.ok:
        raise CLIError(
            f"{len(report.violations)} of {report.total} chaos runs "
            "violated invariants"
        )


def cmd_serve_bench(args: argparse.Namespace) -> None:
    """Benchmark the scheduling service under a Zipf request stream.

    Serves a stream of scheduling requests through the content-addressed
    cache / warm-start / single-flight tiers of :mod:`repro.service` and
    writes the scale-routed BENCH document (schema
    ``repro-bench-service/3``): full runs go to ``BENCH_service.json``,
    ``--quick``/custom runs to the ``BENCH_service_quick.json`` side
    path so a smoke run can never clobber the committed full-scale
    artifact (``--force`` overrides the guard).  A text table lands in
    ``results/service_bench.txt``.  ``--requests/--corpus/--skew/
    --arrival/--jobs`` shape the workload; ``--quick`` is the CI smoke
    scale.  Exits 1 when any served schedule fails the linter or the
    cache never hits — a serving layer that rebuilds everything (or
    serves garbage) is broken, however fast.
    """
    from .service import (
        ARRIVAL_PROCESSES,
        arrival_names,
        render_service_bench,
        run_service_bench,
        write_service_bench,
    )

    if args.arrival not in ARRIVAL_PROCESSES:
        raise CLIError(
            f"unknown --arrival {args.arrival!r}; choose from "
            f"{', '.join(arrival_names())}"
        )
    if args.requests is not None and args.requests < 1:
        raise CLIError(f"--requests must be >= 1, got {args.requests}")
    if args.corpus is not None and args.corpus < 1:
        raise CLIError(f"--corpus must be >= 1, got {args.corpus}")
    if args.skew < 0:
        raise CLIError(f"--skew must be non-negative, got {args.skew}")
    if args.jobs < 0:
        raise CLIError(f"--jobs must be >= 0, got {args.jobs}")
    bench = run_service_bench(
        quick=args.quick,
        skew=args.skew,
        arrival=args.arrival,
        workers=args.jobs,
        corpus_size=args.corpus,
        requests=args.requests,
        progress=print,
    )
    try:
        out = write_service_bench(bench, force=args.force)
    except ValueError as exc:
        raise CLIError(str(exc))
    report = render_service_bench(bench)
    results = Path("results")
    results.mkdir(exist_ok=True)
    (results / "service_bench.txt").write_text(report + "\n")
    print()
    print(report)
    print(f"[bench written to {out}]")
    bad = [
        name
        for name, wl in bench["workloads"].items()
        if wl["lint_failures"] or wl["hit_rate"] <= 0
    ]
    if bad:
        print(
            f"serve-bench: lint failures or zero hit rate in "
            f"{', '.join(bad)}",
            file=sys.stderr,
        )
        raise SystemExit(1)


def cmd_serve_chaos(args: argparse.Namespace) -> None:
    """Service chaos campaign: seeded faults vs. the guarded scheduler.

    Each seeded run drives a concurrent request burst through a
    :class:`~repro.service.Scheduler` armed with a guard (deadlines,
    retries, breaker, admission control) while injecting worker kills,
    slow builds, transient failures, disk corruption, and overload —
    then checks that every request terminates with a response or a
    structured error, served schedules stay byte-identical to cold
    builds, and every ``service.guard.*`` counter reconciles exactly
    with per-request traces.  ``--quick`` runs the CI-sized 14-run
    campaign (full: 105); ``--runs N`` overrides either;
    ``--fault-seed`` offsets the scenario seeds.  Results land in
    ``results/service_chaos.{txt,json}`` plus a merged
    ``repro-metrics/1`` snapshot in
    ``results/service_chaos_metrics.json``.
    """
    from .service.chaos import (
        render_service_chaos,
        run_service_campaign,
        write_service_chaos,
    )

    if args.runs is not None and args.runs < 1:
        raise CLIError(f"--runs must be >= 1, got {args.runs}")
    report = run_service_campaign(
        quick=args.quick,
        runs=args.runs,
        seed_base=args.fault_seed,
        progress=print,
    )
    txt, js, mx = write_service_chaos(report, "results")
    print()
    print(render_service_chaos(report))
    print(f"[service chaos report written to {txt}, {js} and {mx}]")
    if not report.ok:
        raise CLIError(
            f"{len(report.violations)} of {report.total} service chaos "
            "runs violated invariants"
        )


def cmd_perf(args: argparse.Namespace) -> None:
    """Time the canonical hot-path workloads; write BENCH_sim.json.

    ``--quick`` shrinks the exchange sweep for smoke runs; ``--bench-out``
    moves the JSON (default ``BENCH_sim.json`` in the current directory);
    ``--jobs N`` fans workloads out over N worker processes (timings get
    noisier — compare like with like when feeding ``perfcmp``).
    A text rendering also lands in ``results/perf_hotpath.txt``.
    """
    from .analysis.perf import render_report, run_perf, write_bench

    if args.jobs < 0:
        raise CLIError(f"--jobs must be >= 0, got {args.jobs}")
    bench = run_perf(quick=args.quick, progress=print, jobs=args.jobs)
    out = Path(args.bench_out)
    write_bench(bench, out)
    report = render_report(bench)
    results = Path("results")
    results.mkdir(exist_ok=True)
    (results / "perf_hotpath.txt").write_text(report + "\n")
    print()
    print(report)
    print(f"[bench written to {out}]")


def cmd_perfcmp(args: argparse.Namespace) -> None:
    """Diff two BENCH_sim.json files; exit non-zero on regressions.

    Compares ``--baseline`` (default the committed
    ``benchmarks/BENCH_baseline.json``) against ``--current`` (default
    ``BENCH_sim.json``); workloads slower by more than ``--threshold``
    (fraction, default 0.10) *and* more than ``--min-delta`` absolute
    seconds fail the run, as does any simulated-time drift.  The
    absolute floor keeps millisecond-scale quick workloads from failing
    on scheduler noise; ``--min-delta 0`` disables it.
    """
    from .analysis.perfcmp import compare_benches, load_bench, render_comparison

    def _load(path: str, role: str):
        try:
            return load_bench(path)
        except OSError as exc:
            raise CLIError(f"cannot read {role} BENCH file {path}: {exc}")
        except ValueError as exc:
            raise CLIError(f"malformed {role} BENCH file {path}: {exc}")

    baseline = _load(args.baseline, "baseline")
    current = _load(args.current, "current")
    try:
        cmp = compare_benches(
            baseline, current, threshold=args.threshold, min_delta=args.min_delta
        )
    except ValueError as exc:
        raise CLIError(str(exc))
    print(render_comparison(cmp))
    if not cmp.ok:
        raise SystemExit(1)


def cmd_validate(args: argparse.Namespace) -> None:
    """Lint schedules statically; exit 1 if any report fails.

    By default lints every generator's output at ``--nprocs`` (the four
    complete-exchange schedules against the complete-exchange pattern,
    and every irregular algorithm against a synthetic pattern).
    ``--algorithm NAME`` restricts to one name; ``--schedule FILE``
    lints a saved schedule JSON instead.
    """
    from .schedules import (
        CommPattern,
        lint_schedule,
        load_schedule,
        schedule_irregular,
    )
    from .schedules.irregular import IRREGULAR_ALGORITHMS

    if args.schedule is not None:
        try:
            sched = load_schedule(args.schedule)
        except OSError as exc:
            raise CLIError(f"cannot read schedule file {args.schedule}: {exc}")
        except ValueError as exc:
            raise CLIError(f"malformed schedule file {args.schedule}: {exc}")
        report = lint_schedule(sched)
        print(report.render())
        if not report.ok:
            raise SystemExit(1)
        return

    if args.algorithm is not None and args.algorithm not in _VALIDATE_ALGORITHMS:
        raise CLIError(
            f"unknown --algorithm {args.algorithm!r}; choose from "
            f"{', '.join(_VALIDATE_ALGORITHMS)}"
        )
    nprocs = _parse_nprocs(args.nprocs)
    nbytes = 256
    wanted = (
        _VALIDATE_ALGORITHMS if args.algorithm is None else (args.algorithm,)
    )
    exchange_builders = {
        "linear": linear_exchange,
        "pairwise": pairwise_exchange,
        "recursive": recursive_exchange,
        "balanced": balanced_exchange,
    }
    synthetic = CommPattern.synthetic(nprocs, 0.5, nbytes, seed=1)
    failures = 0
    for name in wanted:
        if name in exchange_builders:
            pattern = CommPattern.complete_exchange(nprocs, nbytes)
            report = lint_schedule(
                exchange_builders[name](nprocs, nbytes), pattern
            )
            print(report.render())
            failures += not report.ok
        if name in IRREGULAR_ALGORITHMS:
            report = lint_schedule(
                schedule_irregular(synthetic, name), synthetic
            )
            print(report.render())
            failures += not report.ok
    print(
        f"validate: {len(wanted)} algorithm(s) on {nprocs} nodes, "
        f"{failures} failing report(s)"
    )
    if failures:
        raise SystemExit(1)


def cmd_conformance(args: argparse.Namespace) -> None:
    """Run the cross-backend conformance harness; exit 1 on any failure.

    ``--quick`` runs the CI-sized grid (Figure 5 crossover region plus
    the Table 11 density endpoints); the full grid adds the Figure 6-8
    scaling points, the remaining densities and the Table 12 application
    patterns.  Artifacts: ``results/conformance.txt`` and
    ``results/conformance.json``.
    """
    from .analysis.conformance import (
        render_conformance,
        run_conformance,
        write_conformance,
    )

    report = run_conformance(quick=args.quick, progress=print)
    txt, js = write_conformance(report)
    print()
    print(render_conformance(report))
    print(f"[written to {txt} and {js}]")
    if not report.ok:
        raise SystemExit(1)


def cmd_optgap(args: argparse.Namespace) -> None:
    """Run the optimality-gap harness; exit 1 on any failure.

    Prices LS/PS/BS/GS, the König coloring and the local-search refiner
    with all three backends, divides by the makespan lower bounds
    (:mod:`repro.schedules.bound`), and fails when any gap is below 1.0
    (an unsound bound) or any schedule fails the linter.  ``--quick``
    runs the CI-sized N=8/16 grid.  Artifacts: ``results/optgap.txt``
    and ``results/optgap.json``.
    """
    from .analysis.optgap import render_optgap, run_optgap, write_optgap

    report = run_optgap(quick=args.quick, progress=print)
    txt, js = write_optgap(report)
    print()
    print(render_optgap(report))
    print(f"[written to {txt} and {js}]")
    if not report.ok:
        raise SystemExit(1)


def cmd_calibrate(args: argparse.Namespace) -> None:
    from .analysis.calibrate import fit

    if args.quick:
        from .analysis.calibrate import anchors_from_table11

        result = fit(
            anchors=anchors_from_table11(densities=(0.50,)),
            recv_overheads=(55e-6,),
            send_overheads=(30e-6,),
            contentions=(0.12,),
        )
    else:
        result = fit()
    print(result.report())
    print("best parameters:", result.params)


COMMANDS = {
    "schedules": cmd_schedules,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "table5": cmd_table5,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "table11": cmd_table11,
    "table12": cmd_table12,
    "topology": cmd_topology,
    "faults": cmd_faults,
    "chaos": cmd_chaos,
    "gantt": cmd_gantt,
    "report": cmd_report,
    "calibrate": cmd_calibrate,
    "perf": cmd_perf,
    "perfcmp": cmd_perfcmp,
    "serve-bench": cmd_serve_bench,
    "serve-chaos": cmd_serve_chaos,
    "validate": cmd_validate,
    "conformance": cmd_conformance,
    "optgap": cmd_optgap,
    "trace": cmd_trace,
    "critpath": cmd_critpath,
    "roottraffic": cmd_roottraffic,
    "metrics": cmd_metrics,
    "profile": cmd_profile,
}


def cmd_all(args: argparse.Namespace) -> None:
    for name, fn in COMMANDS.items():
        if name in (
            "report",
            "perf",
            "perfcmp",
            "serve-bench",
            "serve-chaos",
            "conformance",
            "optgap",
            "trace",
            "critpath",
            "roottraffic",
            "chaos",
            "metrics",
            "profile",
        ):
            continue  # writes files / needs file args; run explicitly
        print(f"\n===== {name} =====")
        fn(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cm5-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + ["all"],
        help="which exhibit to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink sweeps to small machines (smoke run)",
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write figure data as CSV under DIR",
    )
    fault_group = parser.add_argument_group(
        "fault injection (the `faults` experiment)"
    )
    fault_group.add_argument(
        "--straggler",
        action="append",
        metavar="RANK:FACTOR",
        help="slow one rank's local work by FACTOR (repeatable)",
    )
    fault_group.add_argument(
        "--degrade",
        action="append",
        metavar="LEVEL:INDEX:FACTOR",
        help="scale one fat-tree link's bandwidth by FACTOR (repeatable)",
    )
    fault_group.add_argument(
        "--drop",
        type=float,
        default=0.0,
        metavar="PROB",
        help="drop each message with probability PROB (repaired by retries)",
    )
    fault_group.add_argument(
        "--delay",
        metavar="PROB[:SECONDS]",
        help="delay each message with probability PROB by SECONDS",
    )
    fault_group.add_argument(
        "--fault-seed", type=int, default=0, help="seed for fault decisions"
    )
    fault_group.add_argument(
        "--plan",
        metavar="FILE",
        help="load a FaultPlan from a JSON file (overrides the flags above)",
    )
    perf_group = parser.add_argument_group(
        "performance benchmarking (`perf` / `perfcmp`)"
    )
    perf_group.add_argument(
        "--bench-out",
        default="BENCH_sim.json",
        metavar="FILE",
        help="where `perf` writes its BENCH document",
    )
    perf_group.add_argument(
        "--baseline",
        default="benchmarks/BENCH_baseline.json",
        metavar="FILE",
        help="baseline BENCH document for `perfcmp`",
    )
    perf_group.add_argument(
        "--current",
        default="BENCH_sim.json",
        metavar="FILE",
        help="current BENCH document for `perfcmp`",
    )
    perf_group.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative wall-clock slack before `perfcmp` fails (default 0.10)",
    )
    perf_group.add_argument(
        "--min-delta",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="absolute wall-clock floor below which `perfcmp` treats a "
        "delta as scheduler noise regardless of ratio (default 0.05)",
    )
    service_group = parser.add_argument_group(
        "scheduling service (`serve-bench`; `--jobs` also serves `chaos`/`perf`)"
    )
    service_group.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="requests per serve-bench workload (default: scale preset)",
    )
    service_group.add_argument(
        "--corpus",
        type=int,
        default=None,
        metavar="N",
        help="distinct patterns per serve-bench workload",
    )
    service_group.add_argument(
        "--skew",
        type=float,
        default=1.1,
        metavar="S",
        help="Zipf skew of the request mix (0 = uniform, default 1.1)",
    )
    service_group.add_argument(
        "--arrival",
        default="poisson",
        metavar="NAME",
        help="arrival process: poisson, bursty, closed-loop",
    )
    service_group.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for cold builds / chaos runs / perf "
        "workloads (0 = inline)",
    )
    service_group.add_argument(
        "--runs",
        type=int,
        default=None,
        metavar="N",
        help="scenario count for `serve-chaos` (default: scale preset)",
    )
    service_group.add_argument(
        "--force",
        action="store_true",
        help="let `serve-bench` overwrite a full-scale BENCH_service.json "
        "from a non-full run",
    )
    validate_group = parser.add_argument_group(
        "schedule validation (`validate` / `conformance`)"
    )
    validate_group.add_argument(
        "--nprocs",
        type=int,
        default=8,
        metavar="N",
        help="partition size for `validate` (power of two >= 2)",
    )
    validate_group.add_argument(
        "--algorithm",
        default=None,
        metavar="NAME",
        help="restrict `validate` to one algorithm "
        f"({', '.join(_VALIDATE_ALGORITHMS)})",
    )
    validate_group.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="lint a saved schedule JSON instead of generator outputs",
    )
    obs_group = parser.add_argument_group(
        "observability (`trace` / `critpath` / `roottraffic` / `gantt` / "
        "`metrics` / `profile`)"
    )
    obs_group.add_argument(
        "--format",
        default="perfetto",
        metavar="FMT",
        help="trace export format for `trace` (only 'perfetto'); "
        "exposition format for `metrics` ('prom' or 'json', default json)",
    )
    obs_group.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="where `trace` writes its export "
        "(default results/trace_<algo>_n<N>.json)",
    )
    obs_group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="analyze a previously exported perfetto trace "
        "(`critpath` / `gantt`)",
    )
    obs_group.add_argument(
        "--nbytes",
        type=int,
        default=512,
        metavar="B",
        help="bytes per pair for observability runs (default 512)",
    )
    obs_group.add_argument(
        "--check",
        nargs="?",
        const=True,
        default=None,
        metavar="FILE",
        help="`trace`: validate FILE against repro-trace/1 instead of "
        "running; `metrics`: bare flag validates the emitted document, "
        "with FILE validates an existing artifact",
    )
    obs_group.add_argument(
        "--mode",
        default="phases",
        metavar="MODE",
        help="`profile` mode: 'phases' (deterministic per-phase call "
        "counters) or 'sample' (collapsed-stack flamegraph)",
    )
    obs_group.add_argument(
        "--workload",
        default="pex_n256_b512",
        metavar="NAME",
        help="perf workload for `profile` (default pex_n256_b512)",
    )
    obs_group.add_argument(
        "--interval",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="sampling interval for `profile --mode sample` (default 0.002)",
    )
    args = parser.parse_args(argv)
    try:
        if args.experiment == "all":
            cmd_all(args)
        else:
            COMMANDS[args.experiment](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
