"""Degraded-mode schedule repair: re-sequence around known faults.

Schedule optimality is fragile under heterogeneous costs: a single slow
node or link turns a carefully balanced step sequence into a convoy.
:func:`repair_schedule` takes a schedule whose steps are independent
(PEX/BEX/GS-style — every pattern message appears exactly once, no
store-and-forward staging) and a :class:`~repro.faults.FaultPlan`
describing *known* degradations, and permutes the steps:

1. **Fault-heavy steps first.**  Steps whose estimated time inflates
   most under the plan (they hit the straggler hardest, or push the most
   bytes across a degraded link) are moved to the front.  Because the
   executor has no inter-step barriers, healthy ranks run ahead through
   the later, clean steps while the degraded resource works off its
   backlog — trailing the whole machine behind the straggler at the end
   of the run is what the unrepaired order does.
2. **Root-traffic rebalancing.**  Within groups of equally-impacted
   steps, steps are re-interleaved so bursts of upper-level (root)
   traffic alternate with local-heavy steps instead of arriving
   back-to-back — the same spreading argument behind BEX, applied to
   the degraded machine.

The permutation moves whole blocks of the schedule's columns, one per
step, and leaves each block as it was, so per-step contention-freedom,
pattern coverage, and the deadlock-free intra-step orderings all survive
(the property tests in ``tests/faults/test_repair.py`` check exactly
this).  Store-and-forward schedules (REX) carry data dependencies
*between* steps and cannot be re-sequenced; they are rejected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..faults.model import FaultModel
from ..faults.plan import FaultPlan
from ..machine.fattree import fat_tree_for
from ..machine.params import MachineConfig
from .estimate import busiest_rank, level_bandwidths, wire_bytes_of
from .schedule import Schedule, ScheduleError

__all__ = [
    "repair_schedule",
    "step_cost_estimate",
    "rank_steps",
]

#: Relative tolerance for grouping steps as "equally impacted".
_IMPACT_RTOL = 1e-9


def step_cost_estimate(
    columns: np.ndarray,
    nsteps: int,
    config: MachineConfig,
    model: Optional[FaultModel] = None,
) -> np.ndarray:
    """Analytic time estimate of each of ``nsteps`` steps given as
    columns (:attr:`~repro.schedules.schedule.Schedule.columns`), under
    an optional fault model.

    Per rank, a step costs its software overheads plus the wire time
    of its transfers at the route's level bandwidth, scaled down by the
    worst degraded link on the path; the step completes when its
    busiest rank does.  A known straggler is priced as generally slow at
    message handling — its per-byte and per-message work is stretched by
    its worst slowdown factor — which is a *planning* heuristic, not the
    simulator's timing (the simulator stretches exactly the work the
    plan names).
    """
    params = config.params
    _, src, dst, nbytes, pack, unpack = columns
    bandwidth = level_bandwidths(config, params, config.route_levels(src, dst))
    if model is not None:
        bandwidth = bandwidth * model.path_degradation(src, dst)
    wire = wire_bytes_of(nbytes) / bandwidth
    # A straggler stretches only the work on its own clock — the
    # software overheads and pack/unpack copies.  Wire time is the
    # network's and is priced through link degradation alone.
    send = params.send_overhead + pack / params.memcpy_bandwidth
    recv = params.recv_overhead + unpack / params.memcpy_bandwidth
    if model is not None:
        slow = np.maximum(model.compute_slowdowns(), model.overhead_slowdowns())
        send, recv = send * slow[src], recv * slow[dst]
    return busiest_rank(columns, (send, wire), (recv, wire), nsteps, config.nprocs)


def _spread(
    indices: List[int], weights: Sequence[float], keys: Sequence[Tuple]
) -> List[int]:
    """Reorder ``indices`` so heavy and light weights alternate.

    Sorts by weight descending and deals from both ends
    (heaviest, lightest, 2nd-heaviest, ...), turning a monotone run of
    root-traffic bursts into an interleave.
    """
    if len(indices) < 3:
        return indices
    ranked = sorted(indices, key=lambda i: (-weights[i], keys[i]))
    out: List[int] = []
    lo, hi = 0, len(ranked) - 1
    while lo <= hi:
        out.append(ranked[lo])
        if lo != hi:
            out.append(ranked[hi])
        lo += 1
        hi -= 1
    return out


def rank_steps(
    columns: np.ndarray,
    nsteps: int,
    config: MachineConfig,
    model: Optional[FaultModel] = None,
) -> List[int]:
    """Indices of ``nsteps`` steps given as columns (step indices in any
    order) in repair order under ``model``.

    Fault-impacted steps first (largest estimated inflation over the
    healthy cost), root-heavy steps interleaved with local-heavy ones
    within equally-impacted groups.  This is the ordering of
    :func:`repair_schedule`, of the adaptive executor's mid-run
    re-ranking, and (with no model: every impact 0.0, nothing priced)
    of the scheduling service's warm adapt.  Ties break on each step's
    sorted transfer fields, never its index, so the order depends only
    on the step multiset: :func:`repair_schedule` is idempotent.
    """
    step, src, dst, nbytes = columns[:4]
    if model is None:
        impact = [0.0] * nsteps
    else:
        impact = (
            step_cost_estimate(columns, nsteps, config, model)
            - step_cost_estimate(columns, nsteps, config)
        ).tolist()
    # Bytes each step pushes through links above the clusters of four.
    root = np.zeros(nsteps, dtype=np.int64)
    np.add.at(root, step, np.where(config.route_levels(src, dst) > 1, nbytes, 0))
    weights = root.astype(float).tolist()
    by_key = np.lexsort(columns[::-1])  # step, then the five fields
    rows = list(zip(*columns[1:, by_key].tolist()))
    bounds = np.searchsorted(step[by_key], np.arange(nsteps + 1)).tolist()
    keys = [tuple(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    # Heaviest fault impact first; step content breaks ties.
    order = sorted(range(nsteps), key=lambda i: (-impact[i], keys[i]))

    # Rebalance root traffic inside equal-impact groups.
    rebalanced: List[int] = []
    group: List[int] = []
    scale = max(max((abs(x) for x in impact), default=0.0), 1e-30)
    for idx in order:
        if group and abs(impact[group[0]] - impact[idx]) > _IMPACT_RTOL * scale:
            rebalanced.extend(_spread(group, weights, keys))
            group = []
        group.append(idx)
    rebalanced.extend(_spread(group, weights, keys))
    return rebalanced


def repair_schedule(
    schedule: Schedule,
    plan: FaultPlan,
    config: MachineConfig,
) -> Schedule:
    """Re-sequence ``schedule``'s steps around the faults in ``plan``.

    Returns a new schedule (name suffixed ``+repair``) whose steps are a
    permutation of the input's: fault-impacted steps move early and
    root-heavy steps are interleaved with local ones within
    equally-impacted groups.  With no straggler or link-degrade faults
    in the plan the schedule is returned unchanged.

    Raises :class:`ScheduleError` for store-and-forward schedules
    (non-zero pack/unpack bytes): their steps carry data dependencies
    and must not be permuted.
    """
    if schedule.nprocs != config.nprocs:
        raise ScheduleError(
            f"{schedule.name}: schedule is for {schedule.nprocs} procs, "
            f"machine has {config.nprocs}"
        )
    if not plan.stragglers and not plan.link_degrades:
        return schedule
    cols = schedule.columns
    if cols[4:].any():
        raise ScheduleError(
            f"{schedule.name}: store-and-forward schedules carry "
            "inter-step data dependencies and cannot be re-sequenced"
        )

    with obs.span("build/repair", category="build", nprocs=schedule.nprocs):
        model = FaultModel(plan, fat_tree_for(config))
        nsteps = schedule.nsteps
        order = rank_steps(cols, nsteps, config, model)
        # Step ``order[k]``'s block of rows moves to step ``k``.
        seat = np.empty(nsteps, dtype=np.int64)
        seat[order] = np.arange(nsteps)
        perm = np.argsort(seat[cols[0]], kind="stable")
        out = cols[:, perm]
        out[0] = seat[cols[0]][perm]
        name = schedule.name
        if not name.endswith("+repair"):
            name = f"{name}+repair"
        return Schedule(
            schedule.nprocs,
            out,
            name=name,
            exchange_order=schedule.exchange_order,
            nsteps=nsteps,
        )
