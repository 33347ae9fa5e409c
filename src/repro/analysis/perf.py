"""Hot-path performance benchmark: canonical workloads, machine-readable.

The fluid-network hot path (struct-of-arrays flow store + compiled
progressive-filling kernel, see :mod:`repro.machine.contention` and
:mod:`repro.machine.bandwidth`) is a performance surface that regresses
silently: traces stay byte-identical while wall-clock drifts.  This
module times a fixed set of canonical workloads end to end and writes
the results as a ``BENCH_sim.json`` file that
:mod:`repro.analysis.perfcmp` can diff across revisions.

Workloads (full scale):

* complete exchanges — PEX / BEX / REX at 32, 128, 256 and 1024 nodes,
  512 B per pair (the Fig. 5-8 regime extended to the paper's largest
  machine; 256-node PEX is the headline number);
* irregular — greedy schedules of the Table 11 synthetic patterns
  (32 nodes, densities 25/50/75 %, 512 B);
* fault-injected — a 16-node PEX under a straggler + message drops + a
  degraded link, exercising the retry and degraded-allocation paths.

``quick=True`` shrinks the exchange sweep to 16/32 nodes and one
density for CI smoke runs.

The JSON schema (``repro-bench-sim/1``)::

    {
      "schema": "repro-bench-sim/1",
      "scale": "full" | "quick",
      "kernel": "<fastfill kernel state>",
      "workloads": {
        "<name>": {
          "wall_seconds": <host seconds to simulate>,
          "sim_ms": <simulated milliseconds (the model's answer)>,
          "messages": <point-to-point message count>,
          "layers": {"build": <s>, "execute": <s>}
        }, ...
      }
    }

``wall_seconds`` is the perf payload; ``sim_ms`` doubles as a cheap
correctness canary (it must not move at all between revisions unless
the model itself changed).  ``layers`` splits the best rep's wall time
by span category (schedule construction vs simulation), measured with a
rep-local :class:`repro.obs.Tracer` — *not* a globally installed one,
so the engine's op recording never runs and the timed path is identical
to an untraced run.  ``perfcmp`` ignores the key; it exists so a
regression in the diff can be attributed to a layer at a glance.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..faults import FaultPlan, LinkDegrade, MessageDrop, NodeStraggler
from ..machine import CM5Params, MachineConfig
from ..machine._fastfill import kernel_description
from ..obs import Tracer
from ..schedules import (
    CommPattern,
    balanced_exchange,
    execute_schedule,
    greedy_schedule,
    pairwise_exchange,
    recursive_exchange,
)

__all__ = [
    "BENCH_SCHEMA",
    "perf_workloads",
    "run_perf",
    "render_report",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench-sim/1"

_EXCHANGES = (
    ("pex", pairwise_exchange),
    ("bex", balanced_exchange),
    ("rex", recursive_exchange),
)

#: Bytes per pair in the exchange sweep (Fig. 7's size).
_EXCHANGE_BYTES = 512
#: Table 11 regime for the irregular workloads.
_IRR_NPROCS = 32
_IRR_BYTES = 512
_IRR_SEED = 42

_FAULT_PLAN = FaultPlan(
    (NodeStraggler(5, 8.0), MessageDrop(0.02), LinkDegrade(2, 0, 0.5)),
    seed=7,
)


@dataclass(frozen=True)
class _Workload:
    """One timed workload, split so the timer can attribute layers.

    ``build`` constructs the schedule, ``execute`` simulates it; the
    harness times each under its own span and reports the split as the
    workload's ``layers``.
    """

    name: str
    build: Callable[[], "object"]  # -> Schedule
    execute: Callable[["object"], "object"]  # Schedule -> ExecutionResult


def perf_workloads(quick: bool = False) -> List[_Workload]:
    """The canonical workload list, in execution order."""
    machines = (16, 32) if quick else (32, 128, 256, 1024)
    densities = (0.50,) if quick else (0.25, 0.50, 0.75)
    loads: List[_Workload] = []
    for n in machines:
        for label, build in _EXCHANGES:
            loads.append(
                _Workload(
                    f"{label}_n{n}_b{_EXCHANGE_BYTES}",
                    lambda n=n, build=build: build(n, _EXCHANGE_BYTES),
                    lambda sched, n=n: execute_schedule(sched, MachineConfig(n)),
                )
            )
    for d in densities:
        pattern = CommPattern.synthetic(_IRR_NPROCS, d, _IRR_BYTES, seed=_IRR_SEED)
        loads.append(
            _Workload(
                f"irr_d{int(d * 100)}_greedy",
                lambda pattern=pattern: greedy_schedule(pattern),
                lambda sched: execute_schedule(sched, MachineConfig(_IRR_NPROCS)),
            )
        )
    loads.append(
        _Workload(
            "fault_pex_n16_b256",
            lambda: pairwise_exchange(16, 256),
            lambda sched: execute_schedule(
                sched,
                MachineConfig(16, CM5Params(routing_jitter=0.0)),
                faults=_FAULT_PLAN,
                trace=True,
            ),
        )
    )
    return loads


_WARMED = False


def _warm_up() -> None:
    """Untimed warm-up: absorb one-off costs (kernel dlopen, NumPy ufunc
    setup, import side effects) so the first timed workload is
    comparable to the rest — and quick vs full runs to each other.
    Runs once per process (worker processes warm up on first task)."""
    global _WARMED
    if not _WARMED:
        execute_schedule(pairwise_exchange(8, 64), MachineConfig(8))
        _WARMED = True


def _time_workload(spec: "Tuple[str, bool]") -> "Tuple[str, Dict[str, object]]":
    """Worker: time one named workload of the ``quick``/full list.

    Module-level and addressed by *name* (the workload lambdas don't
    pickle) so ``run_perf`` can fan workloads out over a
    :class:`repro.service.pool.WorkerPool`.
    """
    name, quick = spec
    _warm_up()
    for wl in perf_workloads(quick):
        if wl.name == name:
            break
    else:
        raise ValueError(f"unknown perf workload {name!r}")
    # Short workloads are re-run and the minimum kept: scheduler
    # noise on sub-second timings easily exceeds any regression
    # threshold, while the minute-scale sweeps stay single-shot.
    # Five reps, not three — the batched engine shrank the quick
    # workloads to tens of milliseconds, where a min-of-3 still
    # carries enough jitter to trip a 25 % CI threshold.
    wall = float("inf")
    layers: Dict[str, float] = {}
    for rep in range(5):
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.span("build", category="build"):
            sched = wl.build()
        with tracer.span("execute", category="execute"):
            res = wl.execute(sched)
        elapsed = time.perf_counter() - t0
        if elapsed < wall:
            wall = elapsed
            layers = tracer.category_seconds()
        if wall >= 1.0:
            break
    return name, {
        "wall_seconds": round(wall, 4),
        "sim_ms": res.time_ms,
        "messages": res.sim.message_count,
        "layers": {k: round(v, 4) for k, v in sorted(layers.items())},
    }


def run_perf(
    quick: bool = False,
    progress: "Callable[[str], None] | None" = None,
    jobs: int = 0,
) -> Dict[str, object]:
    """Time every canonical workload; returns the BENCH document.

    ``jobs`` fans workloads out over a process pool (``jobs=0`` = the
    sequential reference behavior).  Parallel replicas share cores, so
    individual wall timings are noisier than a sequential run — use
    ``jobs`` to cut regeneration latency, and compare like with like
    (sequential baseline vs sequential current) when the numbers feed
    ``perfcmp`` at a tight threshold.  ``sim_ms`` and ``messages`` are
    deterministic at any job count.
    """
    from ..service.pool import WorkerPool

    _warm_up()
    specs = [(wl.name, quick) for wl in perf_workloads(quick)]

    def _report(item: "Tuple[str, Dict[str, object]]") -> None:
        if progress is not None:
            name, row = item
            progress(
                f"{name:<24} {row['wall_seconds']:8.2f}s wall   "
                f"{row['sim_ms']:10.3f} sim-ms"
            )

    with WorkerPool(jobs) as pool:
        rows = pool.map_ordered(_time_workload, specs, progress=_report)
    return {
        "schema": BENCH_SCHEMA,
        "scale": "quick" if quick else "full",
        "kernel": kernel_description(),
        "workloads": {name: row for name, row in rows},
    }


def render_report(bench: Dict[str, object]) -> str:
    """Fixed-width text rendering of one BENCH document."""
    lines = [
        f"Hot-path perf benchmark ({bench['scale']} scale)",
        f"allocation kernel: {bench['kernel']}",
        "",
        f"{'workload':<24} {'wall s':>10} {'sim ms':>12} {'messages':>9}",
    ]
    for name, row in bench["workloads"].items():
        layers = row.get("layers") or {}
        split = "  " + " ".join(
            f"{k}={layers[k]:.2f}s" for k in sorted(layers)
        ) if layers else ""
        lines.append(
            f"{name:<24} {row['wall_seconds']:10.2f} "
            f"{row['sim_ms']:12.3f} {row['messages']:9d}{split}"
        )
    return "\n".join(lines)


def write_bench(bench: Dict[str, object], path) -> None:
    """Serialize one BENCH document (stable key order, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
