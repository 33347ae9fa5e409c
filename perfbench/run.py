"""Repository benchmark: complete exchange, irregular scheduling, serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exchange_n128 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

``--workload`` is one of ``exchange_n128``, ``irregular_n32``,
``serve_n32`` or ``all``.  With ``--trace 0`` the run reports the five
end-to-end metrics; with ``--trace 1`` it runs half the cycles untraced
(layer timers only) and half under ``repro.obs.tracing()`` and reports
the per-layer metrics.  Human-readable lines (``workload/metric = value
unit``) come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark refuses to report (exit 3) unless the C allocation kernel
is loaded, because the NumPy fallback is a different program; it exits
2 when the ``repro`` package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import harness
from harness import END_TO_END, beyond, clock

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exchange_n128", "irregular_n32", "serve_n32")

#: Per-layer metric -> unit.  A workload that never calls a layer
#: reports 0 for that layer's metrics.
PER_LAYER = {
    "schedules.build_ms_per_op": "ms",
    "schedules.build_share": "ratio",
    "schedules.lint_ms_per_op": "ms",
    "sim.execute_ms_per_op": "ms",
    "sim.us_per_msg": "us",
    "sim.messages_per_op": "count",
    "machine.allocations_per_msg": "count",
    "apps.mesh_s": "s",
    "apps.partition_s": "s",
    "apps.halo_s": "s",
    "service.hit_share": "ratio",
    "service.warm_share": "ratio",
    "service.iso_share": "ratio",
    "service.cold_share": "ratio",
    "service.latency_ms.hit.p50": "ms",
    "service.latency_ms.warm.p50": "ms",
    "service.latency_ms.isomorphic.p50": "ms",
    "service.latency_ms.cold.p50": "ms",
    "service.latency_ms.adapt.p50": "ms",
    "service.build_ms_per_cold": "ms",
    "service.lint_ms_per_request": "ms",
    "service.store.entries": "count",
    "trace.overhead": "ratio",
    "trace.layer_coverage": "ratio",
}

#: Minimum distance, as a share of all samples, between a percentile's
#: rank and the edges of the tier or op class that holds it.
PLACEMENT_MARGIN = 0.05


def workload_module(name: str):
    import exchange
    import irregular
    import serve

    return {m.NAME: m for m in (exchange, irregular, serve)}[name]


def measure(module, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    setup_times, states = [], []

    def setup():
        before = harness.reference()
        t0 = clock()
        state = module.setup(seed)
        elapsed = clock() - t0
        setup_times.append(elapsed * harness.speed(before, harness.reference()))
        return state

    for _ in range(module.SETUP_REPEATS):
        states = states[-1:] + [setup()]
    cycles = max(
        getattr(module, "MIN_CYCLES", 1), math.ceil(seconds / module.CYCLE_SECONDS)
    )
    if not trace:
        loop = module.run(states[-1], cycles, False, expected)
        peak_rss = harness.peak_rss_mb()
        # The host's speed drifts, so as many setups again after the
        # loop make setup_s sample both ends of the run.
        states = []
        for _ in range(module.SETUP_REPEATS):
            setup()
        return {
            "loops": [loop],
            "cycles": cycles,
            "metrics": harness.end_to_end(loop, setup_times, peak_rss),
            "units": END_TO_END,
            "classes": getattr(module, "CLASS_LABELS", None),
        }
    half = max(1, cycles // 2)
    plain = module.run(states[-1], half, False, expected)
    traced = module.run(states[-2], half, True, expected)
    return {
        "loops": [plain, traced],
        "cycles": half,
        "metrics": per_layer(plain, traced, states),
        "units": PER_LAYER,
        "classes": None,
    }


def per_layer(plain, traced, states) -> dict:
    """Layer times (raw CPU) from the untraced half, exact counts from
    the traced; the tracing overhead compares throughputs at the
    reference speed."""
    ops = plain.attempted
    layer = plain.layer_seconds
    msgs = plain.counts.get("sim.messages", 0)
    traced_msgs = traced.counts.get("sim.messages", 0)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(
        {
            "schedules.build_ms_per_op": layer.get("build", 0.0) / ops * 1e3,
            "schedules.build_share": layer.get("build", 0.0) / plain.seconds,
            "schedules.lint_ms_per_op": layer.get("lint", 0.0) / ops * 1e3,
            "sim.execute_ms_per_op": layer.get("execute", 0.0) / ops * 1e3,
            "sim.us_per_msg": layer["execute"] / msgs * 1e6 if msgs else 0.0,
            "sim.messages_per_op": msgs / ops,
            "machine.allocations_per_msg": (
                traced.counts.get("net.allocations", 0) / traced_msgs
                if traced_msgs
                else 0.0
            ),
            "trace.overhead": (traced.attempted / harness.rescaled(traced)[0])
            / (plain.attempted / harness.rescaled(plain)[0]),
            "trace.layer_coverage": plain.covered / plain.seconds,
        }
    )
    stages = [s.stages for s in states if getattr(s, "stages", None)]
    for stage in ("mesh", "partition", "halo"):
        if stages:
            out[f"apps.{stage}_s"] = statistics.median(s[stage] for s in stages)
    out.update({name: value for name, (value, _unit) in plain.extra.items()})
    return out


def report(name: str, result: dict) -> None:
    loops = result["loops"]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    loop = loops[0]
    lat = loop.latencies
    cpu = sum(loop.seconds for loop in loops)
    steal = 1 - cpu / sum(loop.wall for loop in loops)
    print(
        f"{name}: {attempted} ops in {result['cycles']} cycles per loop, "
        f"{failed} failed ({failed / attempted:.2%}); wall time beyond CPU "
        f"time {steal:.1%}; host speed {statistics.median(harness.speeds(loop)):.3f}"
        f" (median rescaling factor of {len(loop.segments)} segments), "
        f"{loop.attempted / loop.seconds:.6g} op/s unscaled; percentiles over "
        f"the loop's {len(lat)} samples, {beyond(lat, 0.5)} beyond p50 and "
        f"{beyond(lat, 0.9)} beyond p90"
    )
    labels = result["classes"]
    if labels is not None:
        counts = [loop.op_class.count(k) for k in range(len(labels))]
        print(
            f"{name}: class counts "
            + ", ".join(f"{label}={n}" for label, n in zip(labels, counts))
        )
        for q in (0.5, 0.9):
            by_count, by_latency, value = harness.placement(
                loop, q, PLACEMENT_MARGIN
            )
            where = [
                labels[i] if i >= 0 else "no single class"
                for i in (by_count, by_latency)
            ]
            verdict = "ok" if by_count >= 0 and by_count == by_latency else "FAILS"
            print(
                f"{name}: placement of p{round(q * 100)} ({value * 1e3:.4g} ms "
                f"over the whole loop): rank in {where[0]}, value inside the "
                f"observed range of {where[1]} only: {verdict}"
            )
    units = result["units"]
    for metric, value in result["metrics"].items():
        print(f"{name}/{metric} = {value:.6g} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        from repro.analysis.perf import kernel_description
    except ImportError as exc:
        print(f"error: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    # Build and load the allocation kernel before any timed setup.
    kernel = kernel_description()
    if not kernel.startswith("loaded"):
        print(f"error: allocation kernel is {kernel}; refusing", file=sys.stderr)
        return 3
    env = harness.environment(kernel)
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    expected = harness.load_expected()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(
            workload_module(name),
            args.seed,
            args.seconds,
            bool(args.trace),
            expected.get(name, {}),
        )
        report(name, result)
        attempted += sum(loop.attempted for loop in result["loops"])
        failed += sum(loop.failed for loop in result["loops"])
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {
                "value": value,
                "unit": result["units"][metric],
            }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
