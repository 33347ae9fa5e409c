"""repro.resilience — online fault detection and adaptive execution.

PR 1's fault layer handles degradations *declared in advance*:
:func:`repro.schedules.repair.repair_schedule` permutes steps before the
run and :meth:`repro.cmmd.api.Comm.reliable_send` retries blindly.  This
package closes the loop at runtime:

* :class:`HealthMonitor` (:mod:`repro.resilience.monitor`) watches the
  observability layer's per-rank op records during execution and infers
  an effective :class:`~repro.faults.FaultPlan` — per-rank slowdowns,
  per-link capacity scales, dead ranks — flagging faults that were never
  declared;
* :func:`adaptive_execute` (:mod:`repro.resilience.adaptive`) replaces
  the static step order with an append-only *dispatch order* grown on
  demand: an idle rank pulls its most fault-impacted remaining step
  (scored by :func:`~repro.schedules.repair.step_cost_estimate` under
  the monitor's inferred model), so a straggler detected at step 3 of 31
  stops convoying steps 4–31;
* :class:`~repro.faults.NodeFailure` runs terminate with an explicit
  :class:`DeliveryManifest` accounting every pattern byte as delivered,
  dropped-with-cause, or addressed to a dead rank — degraded completion
  instead of deadlock;
* :mod:`repro.resilience.chaos` sweeps hundreds of seeded random fault
  plans across algorithms and machine sizes, checking invariants (byte
  conservation among survivors, termination, bounded makespan,
  byte-identical replay) on every run.
"""

from .adaptive import (
    AdaptiveResult,
    DeliveryManifest,
    TransferOutcome,
    adaptive_execute,
)
from .chaos import (
    CHAOS_SCHEMA,
    ChaosRun,
    probe_plan,
    random_plan,
    render_chaos,
    run_campaign,
    write_chaos,
)
from .monitor import HealthMonitor, MonitorTracer

__all__ = [
    "HealthMonitor",
    "MonitorTracer",
    "AdaptiveResult",
    "DeliveryManifest",
    "TransferOutcome",
    "adaptive_execute",
    "CHAOS_SCHEMA",
    "ChaosRun",
    "probe_plan",
    "random_plan",
    "render_chaos",
    "run_campaign",
    "write_chaos",
]
