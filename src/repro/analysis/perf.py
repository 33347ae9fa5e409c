"""The pinned simulator workloads: built, executed, never timed here.

:func:`perf_workloads` lists fixed simulator workloads, each split into
a schedule ``build`` and a simulated ``execute``; the tier-1 tests pin
their simulated makespans and message counts.  Wall-clock timing lives
in ``perfbench/`` only.

* complete exchanges — PEX / BEX / REX at 16 and 32 nodes, 512 B per
  pair (the Fig. 5-8 regime);
* irregular — a greedy schedule of a 50 % Table 11 synthetic pattern
  (32 nodes, 512 B);
* fault-injected — a 16-node PEX under a straggler + message drops + a
  degraded link, exercising the retry and degraded-allocation paths.
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

#: Machine sizes and bytes per pair of the exchange sweep (Fig. 7's size).
_EXCHANGE_NPROCS = (16, 32)
_EXCHANGE_BYTES = 512
#: Table 11 regime for the irregular workload.
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
    simulates it."""

    name: str
    build: Callable[[], "object"]  # -> Schedule
    execute: Callable[["object"], "object"]  # Schedule -> ExecutionResult


def perf_workloads() -> List[_Workload]:
    """The pinned workload list, in execution order."""
    loads: List[_Workload] = []
    for n in _EXCHANGE_NPROCS:
        for label, build in _EXCHANGES:
            loads.append(
                _Workload(
                    f"{label}_n{n}_b{_EXCHANGE_BYTES}",
                    lambda n=n, build=build: build(n, _EXCHANGE_BYTES),
                    lambda sched, n=n: execute_schedule(sched, MachineConfig(n)),
                )
            )
    pattern = CommPattern.synthetic(_IRR_NPROCS, 0.5, _IRR_BYTES, seed=_IRR_SEED)
    loads.append(
        _Workload(
            "irr_d50_greedy",
            lambda: greedy_schedule(pattern),
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
