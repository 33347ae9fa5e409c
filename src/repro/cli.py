"""Command-line interface: regenerate any of the paper's exhibits.

Usage::

    python -m repro <command> [options]
    cm5-repro table11 --quick
    cm5-repro <command> --help     # the options that command accepts

The exhibits (``schedules``, ``fig5``-``fig11``, ``table5/11/12``,
``all``) print paper-vs-measured comparisons; ``--quick`` shrinks
sweeps to small machines and ``--csv DIR`` also writes figure data.
The oracles (``validate``, ``conformance``, ``optgap``, ``chaos``,
``serve-chaos``) exit 1 on a failed check, after writing their
artifacts under ``results/``; ``trace``, ``critpath``, ``roottraffic``,
``gantt``, ``metrics`` and ``profile`` observe one run.

Each command accepts exactly the options it reads: :data:`COMMANDS`
names its function and options, and :data:`OPTIONS` defines every
option once, with the type, range and choices the parser enforces.

Exit status: 0 success, 1 check failure, 2 usage error.  A usage
error — an unknown command or option, a malformed, out-of-range or
unknown value, a missing argument, unreadable input or unwritable
output — prints one ``error: …`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from .analysis.tables import format_comparison
from .obs.prof import profile_workload_names
from .schedules import (
    EXCHANGE_ALGORITHMS,
    IRREGULAR_ALGORITHMS,
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

__all__ = ["main", "CLIError", "COMMANDS", "OPTIONS"]


class CLIError(Exception):
    """A user-input problem: report one line on stderr and exit 2."""


@contextlib.contextmanager
def _writing():
    """Around an artifact write: an unwritable destination exits 2."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write output: {exc}") from None


def _save(path, text: str) -> Path:
    """Write one text artifact, creating its directory."""
    path = Path(path)
    with _writing():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return path


def _emit_figure(fig: FigureData, csv_dir: Optional[Path]) -> None:
    print(fig.render())
    if csv_dir is not None:
        slug = fig.name.split(":")[0].strip().lower().replace(" ", "_")
        path = _save(csv_dir / f"{slug}.csv", fig.to_csv())
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
    """Figure 5: complete-exchange time vs message size."""
    fig = fig5_data(sizes=(0, 256, 1024), nprocs=8) if args.quick else fig5_data()
    _emit_figure(fig, args.csv)


def _fig678(args: argparse.Namespace, nbytes_list: List[int]) -> None:
    for nbytes in nbytes_list:
        if args.quick:
            fig = fig678_data(nbytes, machines=(4, 8, 16))
        else:
            fig = fig678_data(nbytes)
        _emit_figure(fig, args.csv)


def cmd_fig6(args: argparse.Namespace) -> None:
    """Figure 6: exchange time vs machine size at 0 and 256 bytes."""
    _fig678(args, [0, 256])


def cmd_fig7(args: argparse.Namespace) -> None:
    """Figure 7: exchange time vs machine size at 512 bytes."""
    _fig678(args, [512])


def cmd_fig8(args: argparse.Namespace) -> None:
    """Figure 8: exchange time vs machine size at 1920 bytes."""
    _fig678(args, [1920])


def cmd_table5(args: argparse.Namespace) -> None:
    """Table 5: 2-D FFT time under each complete-exchange algorithm."""
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
    """Figure 10: broadcast time vs message size."""
    fig = fig10_data(nprocs=8 if args.quick else 32)
    _emit_figure(fig, args.csv)


def cmd_fig11(args: argparse.Namespace) -> None:
    """Figure 11: broadcast time vs machine size."""
    fig = fig11_data(machines=(4, 8, 16)) if args.quick else fig11_data()
    _emit_figure(fig, args.csv)


def cmd_table11(args: argparse.Namespace) -> None:
    """Table 11: synthetic irregular patterns under LS/PS/BS/GS."""
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
    """Table 12: real application patterns under LS/PS/BS/GS."""
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


def _obs_run(algorithm: str, nprocs: int, nbytes: int):
    """One seeded, traced exchange run; returns ``(tracer, result)``."""
    from . import obs
    from .machine import CM5Params, MachineConfig
    from .schedules import execute_schedule

    cfg = MachineConfig(nprocs, CM5Params(routing_jitter=0.0))
    sched = EXCHANGE_ALGORITHMS[algorithm](nprocs, nbytes)
    with obs.tracing() as tracer:
        res = execute_schedule(sched, cfg, trace=True)
    return tracer, res


def cmd_trace(args: argparse.Namespace) -> None:
    """Trace one exchange and export Perfetto JSON (or ``--check`` a file)."""
    from .obs import build_perfetto, load_perfetto, write_perfetto

    if args.check is not None:
        try:
            doc = load_perfetto(args.check)
        except ValueError as exc:
            raise CLIError(str(exc))
        print(
            f"{args.check}: valid {doc['otherData']['schema']} trace, "
            f"{len(doc['traceEvents'])} events"
        )
        return
    algo, nprocs = args.algorithm, args.nprocs
    tracer, res = _obs_run(algo, nprocs, args.nbytes)
    doc = build_perfetto(tracer, trace=res.sim.trace)
    out = Path(args.out or f"results/trace_{algo}_n{nprocs}.json")
    with _writing():
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
    import json

    from .obs import (
        check_prom,
        metrics_to_json,
        render_prom,
        validate_metrics_json,
    )

    fmt = args.format
    if isinstance(args.check, str):
        try:
            text = Path(args.check).read_text()
        except OSError as exc:
            raise CLIError(f"cannot read metrics file {args.check}: {exc}")
        try:
            if fmt == "prom":
                metrics, samples = check_prom(text)
            else:
                metrics, samples = validate_metrics_json(json.loads(text))
        except ValueError as exc:
            raise CLIError(f"{args.check}: {exc}")
        print(f"{args.check}: valid {fmt} exposition, "
              f"{metrics} metric(s), {samples} sample(s)")
        return

    algo, nprocs = args.algorithm, args.nprocs
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
        doc = metrics_to_json(tracer.metrics, meta=meta)
        if args.check:
            validate_metrics_json(doc)
            print("# json snapshot valid", file=sys.stderr)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        out = _save(args.out, text)
        print(f"[metrics written to {out}]")
    else:
        print(text, end="")


def cmd_profile(args: argparse.Namespace) -> None:
    """Profile one workload's hot loop (`--mode phases|sample`).

    ``phases`` (default) counts interpreter-level calls per engine phase
    under :func:`sys.setprofile`, prints the per-message attribution
    table, and exits 1 if the attributed total drifts more than 10 %
    from a direct plain-counter run — the determinism contract.
    ``sample`` takes wall-clock stack samples and writes collapsed
    stacks for flamegraph tools.  ``--workload`` names any profile
    workload (default ``pex_n256_b512``); ``--out`` overrides the
    artifact path under ``results/``.
    """
    from .obs import prof

    workload = args.workload
    if args.mode == "phases":
        print(f"profiling {workload} (phase counters)...")
        report = prof.run_phase_profile(workload)
        table = prof.render_phase_table(report)
        out = _save(args.out or f"results/profile_{workload}.txt", table)
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
    else:
        print(f"profiling {workload} (sampling every {args.interval * 1e3:g} ms)...")
        lines, taken, wall = prof.run_sampling_profile(
            workload, interval=args.interval
        )
        out = _save(
            args.out or f"results/flame_{workload}.txt",
            "\n".join(lines) + ("\n" if lines else ""),
        )
        print(
            f"{taken} samples over {wall:.1f}s, "
            f"{len(lines)} distinct stacks"
        )
        print(f"[collapsed stacks written to {out}; feed to flamegraph.pl "
              "or speedscope]")


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
        algo, nprocs = args.algorithm, args.nprocs
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

    results = []
    for algo, label in (("balanced", "BEX"), ("pairwise", "PEX")):
        _, res = _obs_run(algo, args.nprocs, args.nbytes)
        results.append(
            root_traffic_from_trace(res.sim.trace.messages, label, args.nprocs)
        )
    _finish(True, render_root_traffic(results), lambda: write_root_traffic(results))


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
    out = _save("EXPERIMENTS.md", text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")


def cmd_topology(args: argparse.Namespace) -> None:
    """Fat-tree diagrams with per-level link bandwidths."""
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
        execute_schedule,
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


def _finish(ok: bool, text: str, write: Callable[[], Sequence[Path]]) -> None:
    """Shared ending of the artifact-writing checks.

    Write the artifacts (``write`` returns their paths), print the
    report and where it went, then exit 1 on a failed check — after the
    artifacts, so a failing run still leaves its evidence behind.
    """
    with _writing():
        *head, last = write()
    print()
    print(text)
    print(f"[written to {', '.join(map(str, head))} and {last}]")
    if not ok:
        raise SystemExit(1)


def cmd_chaos(args: argparse.Namespace) -> None:
    """Chaos campaign: random fault plans vs. the adaptive executor.

    Sweeps seeded random fault plans (stragglers, degraded links,
    message delays/drops, node failures) over machine sizes and
    scheduling algorithms, checking termination, byte conservation,
    makespan bounds, and byte-identical replay on every run.  Results
    land in ``results/chaos.{txt,json}``.  ``--quick`` runs the
    CI-sized 20-run grid; ``--plan FILE`` probes one specific plan
    through the same invariant battery instead.  Exits 1 on any
    invariant violation.
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
        for v in run.violations:
            print(f"  !! {v}")
        if run.violations:
            raise SystemExit(1)
        print("all invariants held")
        return
    report = run_campaign(
        quick=args.quick, seed_base=args.fault_seed, jobs=args.jobs
    )
    _finish(
        report.ok, render_chaos(report), lambda: write_chaos(report, "results")
    )


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
    ``results/service_chaos_metrics.json``.  Exits 1 on any invariant
    violation.
    """
    from .obs.metrics import MetricsRegistry
    from .service.chaos import (
        render_service_chaos,
        run_service_campaign,
        write_service_chaos,
    )

    registry = MetricsRegistry()
    report = run_service_campaign(
        quick=args.quick,
        runs=args.runs,
        seed_base=args.fault_seed,
        progress=print,
        registry=registry,
    )
    _finish(
        report.ok,
        render_service_chaos(report),
        lambda: write_service_chaos(report, registry, "results"),
    )


#: Names `validate --algorithm` accepts: the exchange registry, then the
#: irregular names it does not already hold.
_LINTABLE = tuple(dict.fromkeys((*EXCHANGE_ALGORITHMS, *IRREGULAR_ALGORITHMS)))


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

    nprocs = args.nprocs
    nbytes = 256
    wanted = _LINTABLE if args.algorithm is None else (args.algorithm,)
    synthetic = CommPattern.synthetic(nprocs, 0.5, nbytes, seed=1)
    failures = 0
    for name in wanted:
        if name in EXCHANGE_ALGORITHMS:
            pattern = CommPattern.complete_exchange(nprocs, nbytes)
            report = lint_schedule(
                EXCHANGE_ALGORITHMS[name](nprocs, nbytes), pattern
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
    _finish(
        report.ok, render_conformance(report), lambda: write_conformance(report)
    )


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
    _finish(report.ok, render_optgap(report), lambda: write_optgap(report))


def cmd_calibrate(args: argparse.Namespace) -> None:
    """Fit the machine parameters to the paper's Table 11 anchors."""
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


#: What `all` runs, in order: every exhibit that writes nothing outside
#: ``--csv`` and needs no input file.
ALL_EXHIBITS = (
    "schedules",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table5",
    "fig10",
    "fig11",
    "table11",
    "table12",
    "topology",
    "faults",
    "gantt",
    "calibrate",
    "validate",
)


def cmd_all(args: argparse.Namespace) -> None:
    """Run every exhibit that needs no input file, each at its defaults."""
    parser = build_parser()
    for name in ALL_EXHIBITS:
        options = COMMANDS[name].options
        argv = [name]
        if args.quick and "quick" in options:
            argv.append("--quick")
        if args.csv is not None and "csv" in options:
            argv += ["--csv", str(args.csv)]
        exhibit = parser.parse_args(argv)
        print(f"\n===== {name} =====")
        exhibit.run(exhibit)


# ----------------------------------------------------------------------
# Argument specs
# ----------------------------------------------------------------------
def _checked(kind: type, ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    """An argparse ``type=``: parse with ``kind``, then require ``ok``."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse says "invalid int value"
    return parse


_POWER_OF_TWO = _checked(
    int, lambda n: n >= 2 and not n & (n - 1),
    "a power of two >= 2 (CM-5 partition rule)",
)
_NON_NEGATIVE_INT = _checked(int, lambda n: n >= 0, ">= 0")
_POSITIVE_INT = _checked(int, lambda n: n > 0, "> 0")
_POSITIVE_FLOAT = _checked(float, lambda x: 0 < x < math.inf, "finite and > 0")


def _writable_dir(text: str) -> Path:
    """An argparse ``type=`` for an output directory: its nearest
    existing ancestor is probed with a scratch file while parsing, so an
    unwritable one exits 2 before any work runs or prints.  The
    directory itself is created only when an artifact is written
    (``_save``), so a rejected command leaves nothing behind."""
    path = Path(text)
    probe = next(p for p in (path, *path.parents) if p.exists())
    try:
        tempfile.TemporaryFile(dir=probe).close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write output: {exc}") from None
    return path


def _writable_file(text: str) -> str:
    """An argparse ``type=`` for an output file: its directory is
    checked like ``_writable_dir``'s, so nothing runs before the error."""
    _writable_dir(str(Path(text).parent))
    return text


def _option(flag: str, **kwargs: Any) -> Tuple[str, Dict[str, Any]]:
    return flag, kwargs


#: Every option any command takes, defined once: ``name -> (flag,
#: add_argument keywords)``.  Two names share a flag where two commands
#: give it different meanings (``--algorithm``, ``--check``).
OPTIONS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "quick": _option(
        "--quick", action="store_true",
        help="shrink sweeps to small machines (smoke run)",
    ),
    "csv": _option(
        "--csv", type=_writable_dir, metavar="DIR",
        help="also write figure data as CSV under DIR",
    ),
    # fault injection
    "straggler": _option(
        "--straggler", action="append", metavar="RANK:FACTOR",
        help="slow one rank's local work by FACTOR (repeatable)",
    ),
    "degrade": _option(
        "--degrade", action="append", metavar="LEVEL:INDEX:FACTOR",
        help="scale one fat-tree link's bandwidth by FACTOR (repeatable)",
    ),
    "drop": _option(
        "--drop", type=float, default=0.0, metavar="PROB",
        help="drop each message with probability PROB (repaired by retries)",
    ),
    "delay": _option(
        "--delay", metavar="PROB[:SECONDS]",
        help="delay each message with probability PROB by SECONDS",
    ),
    "fault_seed": _option(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for fault decisions; offsets the campaign seeds",
    ),
    "plan": _option(
        "--plan", metavar="FILE",
        help="load a FaultPlan from a JSON file (overrides the fault flags)",
    ),
    # chaos campaigns
    "jobs": _option(
        "--jobs", type=_NON_NEGATIVE_INT, default=0, metavar="N",
        help="worker processes (0 = inline, the default)",
    ),
    "runs": _option(
        "--runs", type=_POSITIVE_INT, metavar="N",
        help="scenario count (default: scale preset)",
    ),
    # schedule validation and observability runs
    "nprocs": _option(
        "--nprocs", type=_POWER_OF_TWO, default=8, metavar="N",
        help="partition size, a power of two >= 2 (default 8)",
    ),
    "lint_algorithm": _option(
        "--algorithm", choices=_LINTABLE,
        help="lint only this algorithm (default: all)",
    ),
    "schedule": _option(
        "--schedule", metavar="FILE",
        help="lint a saved schedule JSON instead of generator outputs",
    ),
    "algorithm": _option(
        "--algorithm", choices=tuple(EXCHANGE_ALGORITHMS), default="balanced",
        help="complete-exchange algorithm to run (default balanced)",
    ),
    "nbytes": _option(
        "--nbytes", type=_NON_NEGATIVE_INT, default=512, metavar="B",
        help="bytes per pair (default 512)",
    ),
    "out": _option(
        "--out", type=_writable_file, metavar="FILE",
        help="where to write the artifact (default under results/)",
    ),
    "trace": _option(
        "--trace", metavar="FILE",
        help="analyze a previously exported perfetto trace instead of running",
    ),
    "check_file": _option(
        "--check", metavar="FILE",
        help="validate FILE against repro-trace/1 instead of running",
    ),
    "check": _option(
        "--check", nargs="?", const=True, metavar="FILE",
        help="bare: validate the emitted document; with FILE: validate "
        "an existing artifact instead of running",
    ),
    "format": _option(
        "--format", choices=("json", "prom"), default="json",
        help="repro-metrics/1 JSON snapshot (default) or Prometheus text",
    ),
    "mode": _option(
        "--mode", choices=("phases", "sample"), default="phases",
        help="deterministic per-phase call counters (default) or "
        "collapsed-stack flamegraph samples",
    ),
    "workload": _option(
        "--workload", choices=profile_workload_names(),
        default="pex_n256_b512", metavar="NAME",
        help="profile workload to run (default pex_n256_b512)",
    ),
    "interval": _option(
        "--interval", type=_POSITIVE_FLOAT, default=0.002, metavar="SECONDS",
        help="sampling interval for --mode sample (default 0.002)",
    ),
}


class Command(NamedTuple):
    """One subcommand: its function and the options it reads."""

    run: Callable[[argparse.Namespace], None]
    #: Names in :data:`OPTIONS`: exactly the attributes ``run`` reads.
    options: Tuple[str, ...] = ()


_FIGURE = ("quick", "csv")
_EXCHANGE_RUN = ("nprocs", "algorithm", "nbytes")

COMMANDS: Dict[str, Command] = {
    "schedules": Command(cmd_schedules),
    "fig5": Command(cmd_fig5, _FIGURE),
    "fig6": Command(cmd_fig6, _FIGURE),
    "fig7": Command(cmd_fig7, _FIGURE),
    "fig8": Command(cmd_fig8, _FIGURE),
    "table5": Command(cmd_table5, ("quick",)),
    "fig10": Command(cmd_fig10, _FIGURE),
    "fig11": Command(cmd_fig11, _FIGURE),
    "table11": Command(cmd_table11, ("quick",)),
    "table12": Command(cmd_table12, ("quick",)),
    "topology": Command(cmd_topology, ("quick",)),
    "faults": Command(
        cmd_faults,
        ("quick", "straggler", "degrade", "drop", "delay", "fault_seed", "plan"),
    ),
    "chaos": Command(cmd_chaos, ("quick", "jobs", "fault_seed", "plan")),
    "gantt": Command(cmd_gantt, ("quick", "trace")),
    "report": Command(cmd_report),
    "calibrate": Command(cmd_calibrate, ("quick",)),
    "serve-chaos": Command(cmd_serve_chaos, ("quick", "runs", "fault_seed")),
    "validate": Command(cmd_validate, ("nprocs", "lint_algorithm", "schedule")),
    "conformance": Command(cmd_conformance, ("quick",)),
    "optgap": Command(cmd_optgap, ("quick",)),
    "trace": Command(cmd_trace, (*_EXCHANGE_RUN, "out", "check_file")),
    "critpath": Command(cmd_critpath, (*_EXCHANGE_RUN, "trace")),
    "roottraffic": Command(cmd_roottraffic, ("nprocs", "nbytes")),
    "metrics": Command(cmd_metrics, (*_EXCHANGE_RUN, "format", "out", "check")),
    "profile": Command(cmd_profile, ("mode", "workload", "interval", "out")),
    "all": Command(cmd_all, _FIGURE),
}

#: Flag -> the value it names in help, for "expected FILE" messages.
_METAVARS = {
    flag: kwargs["metavar"]
    for flag, kwargs in OPTIONS.values()
    if "metavar" in kwargs
}


class _Parser(argparse.ArgumentParser):
    """A parser whose every complaint is one ``error:`` line and exit 2."""

    def error(self, message: str):
        # argparse names a bare option, not the value it lacks.
        bare = re.fullmatch(r"argument (\S+): expected one argument", message)
        if bare and bare[1] in _METAVARS:
            message = f"argument {bare[1]}: expected {_METAVARS[bare[1]]}"
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per :data:`COMMANDS` entry, holding only its options."""
    parser = _Parser(
        prog="cm5-repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(metavar="command", required=True)
    for name, (run, options) in COMMANDS.items():
        doc = run.__doc__ or ""
        sub = commands.add_parser(
            name, help=doc.split("\n")[0], description=doc
        )
        for option in options:
            flag, kwargs = OPTIONS[option]
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.run(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
