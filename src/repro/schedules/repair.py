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

The permutation preserves every structural invariant: steps themselves
are untouched, so per-step contention-freedom, pattern coverage, and the
deadlock-free intra-step orderings all survive (the property tests in
``tests/faults/test_repair.py`` check exactly this).  Store-and-forward
schedules (REX) carry data dependencies *between* steps and cannot be
re-sequenced; they are rejected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..faults.model import FaultModel
from ..faults.plan import FaultPlan
from ..machine.fattree import fat_tree_for
from ..machine.params import MachineConfig, wire_bytes
from .schedule import Schedule, ScheduleError, Step

__all__ = [
    "repair_schedule",
    "step_cost_estimate",
    "rank_steps",
    "rank_columns",
    "order_steps",
]

#: Relative tolerance for grouping steps as "equally impacted".
_IMPACT_RTOL = 1e-9


def step_cost_estimate(
    step: Step,
    config: MachineConfig,
    model: Optional[FaultModel] = None,
) -> float:
    """Analytic time estimate of one step under an optional fault model.

    Per rank, the step costs its software overheads plus the wire time
    of its transfers at the route's level bandwidth, scaled down by the
    worst degraded link on the path; the step completes when its
    busiest rank does.  A known straggler is priced as generally slow at
    message handling — its per-byte and per-message work is stretched by
    its worst slowdown factor — which is a *planning* heuristic, not the
    simulator's timing (the simulator stretches exactly the work the
    plan names).
    """
    params = config.params
    busy = {}
    for t in step:
        level = config.route_level(t.src, t.dst)
        degrade = model.path_degradation(t.src, t.dst) if model else 1.0
        wire = wire_bytes(t.nbytes) / (params.level_bandwidth(level) * degrade)
        # A straggler stretches only the work on its own clock — the
        # software overheads and pack/unpack copies.  Wire time is the
        # network's and is priced through link degradation alone.
        send_sw = params.send_overhead + params.memcpy_time(t.pack_bytes)
        recv_sw = params.recv_overhead + params.memcpy_time(t.unpack_bytes)
        if model is not None:
            send_sw *= max(
                model.compute_slowdown(t.src), model.overhead_slowdown(t.src)
            )
            recv_sw *= max(
                model.compute_slowdown(t.dst), model.overhead_slowdown(t.dst)
            )
        busy[t.src] = busy.get(t.src, 0.0) + send_sw + wire
        busy[t.dst] = busy.get(t.dst, 0.0) + recv_sw + wire
    return max(busy.values(), default=0.0)


def _root_bytes(step: Step, config: MachineConfig) -> int:
    """Bytes the step pushes through links above the clusters of four."""
    return sum(
        t.nbytes for t in step if config.route_level(t.src, t.dst) > 1
    )


def _step_key(step: Step) -> Tuple:
    """Canonical content key of a step, independent of its position.

    All ordering tie-breaks use this key (not the step's index) so that
    the repaired order is a function of the step *multiset* only —
    which is what makes :func:`repair_schedule` idempotent.
    """
    return tuple(
        sorted(
            (t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes)
            for t in step
        )
    )


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
    steps: Sequence[Step],
    config: MachineConfig,
    model: FaultModel,
) -> List[int]:
    """Indices of ``steps`` in repair order under ``model``.

    Fault-impacted steps first (largest estimated inflation over the
    healthy cost), root-heavy steps interleaved with local-heavy ones
    within equally-impacted groups.  This is the ordering of
    :func:`repair_schedule`, exposed so the adaptive executor can
    re-rank the *remaining* steps mid-run under an inferred model.
    """
    impact = [
        step_cost_estimate(s, config, model) - step_cost_estimate(s, config)
        for s in steps
    ]
    root = [float(_root_bytes(s, config)) for s in steps]
    return order_steps(impact, root, [_step_key(s) for s in steps])


def rank_columns(
    columns: np.ndarray, nsteps: int, config: MachineConfig
) -> List[int]:
    """:func:`rank_steps` under a healthy fault model, read from step
    columns (:attr:`~repro.schedules.schedule.Schedule.columns`).

    With no fault every step's degraded estimate equals its healthy
    one, so each impact is 0.0 and only root-traffic spreading orders
    the steps; root bytes and content keys are :func:`_root_bytes` and
    :func:`_step_key` of each step, computed over the columns without
    building a ``Transfer``.  The scheduling service's warm adapt
    orders its edited schedules here.
    """
    step, src, dst, nbytes = columns[:4]
    root = np.zeros(nsteps, dtype=np.int64)
    np.add.at(root, step, np.where(config.leaves_cluster(src, dst), nbytes, 0))
    by_key = np.lexsort(columns[::-1])  # step, then the five fields
    rows = list(zip(*columns[1:, by_key].tolist()))
    bounds = np.searchsorted(step[by_key], np.arange(nsteps + 1)).tolist()
    keys = [tuple(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return order_steps([0.0] * nsteps, root.astype(float).tolist(), keys)


def order_steps(
    impact: Sequence[float], root: Sequence[float], keys: Sequence[Tuple]
) -> List[int]:
    """The ordering core of :func:`rank_steps` and :func:`rank_columns`,
    from each step's fault impact, root-link bytes and content key
    (:func:`_step_key`)."""
    # Heaviest fault impact first; step content breaks ties (so the
    # order depends only on the step multiset, never on input order).
    order = sorted(range(len(keys)), key=lambda i: (-impact[i], keys[i]))

    # Rebalance root traffic inside equal-impact groups.
    rebalanced: List[int] = []
    group: List[int] = []
    scale = max(max((abs(x) for x in impact), default=0.0), 1e-30)
    for idx in order:
        if group and abs(impact[group[0]] - impact[idx]) > _IMPACT_RTOL * scale:
            rebalanced.extend(_spread(group, root, keys))
            group = []
        group.append(idx)
    rebalanced.extend(_spread(group, root, keys))
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
    for _, t in schedule.all_transfers():
        if t.pack_bytes or t.unpack_bytes:
            raise ScheduleError(
                f"{schedule.name}: store-and-forward schedules carry "
                "inter-step data dependencies and cannot be re-sequenced"
            )

    with obs.span("build/repair", category="build", nprocs=schedule.nprocs):
        model = FaultModel(plan, fat_tree_for(config))
        rebalanced = rank_steps(schedule.steps, config, model)
        steps: Tuple[Step, ...] = tuple(schedule.steps[i] for i in rebalanced)
        name = schedule.name
        if not name.endswith("+repair"):
            name = f"{name}+repair"
        return Schedule(
            nprocs=schedule.nprocs,
            steps=steps,
            name=name,
            exchange_order=schedule.exchange_order,
        )
