"""The canonical profile workloads: built, executed, never timed here.

:func:`perf_workloads` lists fixed simulator workloads, each split into
a schedule ``build`` and a simulated ``execute``.  ``repro profile``
attributes their hot loops (:mod:`repro.obs.prof`), and the tier-1
tests pin the quick list's simulated makespans and message counts.
Wall-clock timing lives in ``perfbench/`` only.

Workloads (full scale):

* complete exchanges — PEX / BEX / REX at 32, 128, 256 and 1024 nodes,
  512 B per pair (the Fig. 5-8 regime extended to the paper's largest
  machine);
* irregular — greedy schedules of the Table 11 synthetic patterns
  (32 nodes, densities 25/50/75 %, 512 B);
* fault-injected — a 16-node PEX under a straggler + message drops + a
  degraded link, exercising the retry and degraded-allocation paths.

``quick=True`` shrinks the exchange sweep to 16/32 nodes and one
density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..faults import FaultPlan, LinkDegrade, MessageDrop, NodeStraggler
from ..machine import CM5Params, MachineConfig
from ..machine._fastfill import kernel_description  # noqa: F401 — perfbench/run.py imports it from here
from ..schedules import (
    CommPattern,
    balanced_exchange,
    execute_schedule,
    greedy_schedule,
    pairwise_exchange,
    recursive_exchange,
)

__all__ = ["perf_workloads"]

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
    """One workload: ``build`` constructs the schedule, ``execute``
    simulates it, so a profile can cover the simulation alone."""

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
