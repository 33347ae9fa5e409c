"""Local-search refinement scheduler for irregular patterns ("local").

The paper's GS/BS are one-shot constructive heuristics; the König
coloring (:mod:`repro.schedules.coloring`) is step-optimal but blind to
bytes and locality.  This module closes the loop: start from the better
of the two seeds and *refine* the step assignment with cost-guided local
moves, priced by the analytic estimator
(:func:`repro.schedules.estimate.estimate_step_time`) — the optimizing
counterpart to the lower bounds in :mod:`repro.schedules.bound`, which
`repro.analysis.optgap` uses to report how much gap the refinement
closes.

Move set
--------
* **move** — relocate one transfer from its step to another step (or a
  fresh step) where both its endpoints are free.  Only transfers whose
  removal strictly lowers their step's cost are candidates (adding a
  transfer never cheapens a step, so a move can only pay for itself with
  savings at the source — this prunes the search to each step's
  critical-processor transfers).
* **swap** — exchange two transfers between two steps when each fits in
  the other's slots; escapes local minima where every one-way move is
  blocked by a full slot.

Acceptance is strict first-improvement on the summed step estimates;
candidate visiting order is shuffled by a seeded generator, so the
search is deterministic in ``seed``.  All moves preserve the structural
invariants (one send and one receive per rank per step, byte
conservation, and — because at most one send and one receive per rank
per step makes a rendezvous wait-for cycle impossible under the
executor's recv-from-lower-first ordering — deadlock freedom); the
result is nevertheless linted before it is returned, falling back to the
unrefined seed if a check ever fails.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Set

import numpy as np

from .. import obs
from ..machine.params import MachineConfig
from .coloring import coloring_schedule
from .estimate import estimate_step_time
from .greedy import greedy_schedule
from .pattern import CommPattern
from .schedule import LOWER_RECV_FIRST, Schedule, Step, Transfer
from .validate import lint_schedule

__all__ = ["local_schedule"]

#: Strict-improvement threshold (seconds).  Step costs are ~1e-4..1e-1 s;
#: anything below this is float noise, not a real improvement.
_EPS = 1e-12

#: Default number of improvement passes over the whole schedule.
_MAX_PASSES = 4

#: Per-pass cap on expensive-step swap scans (top-k costliest steps).
_SWAP_TOP_K = 4


@lru_cache(maxsize=32)
def _cost_config(nprocs: int) -> MachineConfig:
    """Machine used to price candidate steps when the caller gave none.

    Rounded up to the next power of two: fat-tree ancestry is integer
    division by the arity, so route levels between ranks below
    ``nprocs`` are identical on the padded machine, and the estimator
    never touches the extra leaves.
    """
    size = 2
    while size < nprocs:
        size *= 2
    return MachineConfig(size)


def local_schedule(
    pattern: CommPattern,
    name: str = "LOCAL",
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    max_passes: int = _MAX_PASSES,
    max_evals: Optional[int] = None,
) -> Schedule:
    """Refine the better of the GS / coloring seeds with local moves.

    ``config`` supplies the machine the estimator prices against
    (default: a partition just large enough for the pattern); ``seed``
    drives the deterministic visiting-order shuffle; ``max_passes`` and
    ``max_evals`` bound the search (the defaults keep the densest
    Table 11 pattern at 32 nodes in the low seconds).
    """
    with obs.span(f"build/{name}", category="build", nprocs=pattern.nprocs):
        return _local_build(pattern, name, config, seed, max_passes, max_evals)


def _local_build(
    pattern: CommPattern,
    name: str,
    config: Optional[MachineConfig],
    seed: int,
    max_passes: int,
    max_evals: Optional[int],
) -> Schedule:
    cfg = config or _cost_config(pattern.nprocs)
    params = cfg.params

    def sched_cost(schedule: Schedule) -> float:
        return sum(
            estimate_step_time(step, cfg, params) for step in schedule.steps
        )

    seeds = [
        greedy_schedule(pattern, name=name),
        coloring_schedule(pattern, name=name),
    ]
    seed_costs = [sched_cost(s) for s in seeds]
    base = seeds[min(range(len(seeds)), key=lambda i: (seed_costs[i], i))]
    if base.nsteps == 0:
        return base

    steps: List[List[Transfer]] = [list(s.transfers) for s in base.steps]
    cost: List[float] = [
        estimate_step_time(s, cfg, params) for s in base.steps
    ]
    send_used: List[Set[int]] = [{t.src for t in s} for s in steps]
    recv_used: List[Set[int]] = [{t.dst for t in s} for s in steps]

    n_messages = sum(len(s) for s in steps)
    budget = (
        max_evals if max_evals is not None else 80 * max(1, n_messages) + 2000
    )
    evals = 0

    def step_cost(transfers: List[Transfer]) -> float:
        nonlocal evals
        evals += 1
        if not transfers:
            return 0.0
        return estimate_step_time(Step(tuple(transfers)), cfg, params)

    def fits(t: Transfer, b: int) -> bool:
        return t.src not in send_used[b] and t.dst not in recv_used[b]

    def detach(t: Transfer, a: int) -> None:
        steps[a].remove(t)
        send_used[a].discard(t.src)
        recv_used[a].discard(t.dst)

    def attach(t: Transfer, b: int) -> None:
        steps[b].append(t)
        send_used[b].add(t.src)
        recv_used[b].add(t.dst)

    rng = np.random.default_rng(seed)
    improved_any = True
    passes = 0
    while improved_any and passes < max_passes and evals < budget:
        passes += 1
        improved_any = False

        # ---- move phase: relocate critical transfers out of hot steps
        by_cost_desc = sorted(
            range(len(steps)), key=lambda i: (-cost[i], i)
        )
        for a in by_cost_desc:
            if evals >= budget:
                break
            units = sorted(steps[a], key=lambda t: (t.src, t.dst))
            rng.shuffle(units)  # deterministic in `seed`
            for t in units:
                if evals >= budget:
                    break
                if t not in steps[a]:
                    continue  # displaced by an earlier accepted swap
                removed = [x for x in steps[a] if x != t]
                new_a = step_cost(removed)
                gain_a = cost[a] - new_a
                if gain_a <= _EPS:
                    # Adding a transfer never cheapens a step, so a move
                    # only pays when the source step gets cheaper.
                    continue
                placed = False
                for b in sorted(
                    range(len(steps)), key=lambda i: (cost[i], i)
                ):
                    if b == a or not fits(t, b):
                        continue
                    if evals >= budget:
                        break
                    new_b = step_cost(steps[b] + [t])
                    if new_a + new_b < cost[a] + cost[b] - _EPS:
                        detach(t, a)
                        attach(t, b)
                        cost[a], cost[b] = new_a, new_b
                        placed = improved_any = True
                        break
                if placed:
                    continue
                # Fresh step: pays only when splitting relieves enough
                # contention in the source step to cover a new step's cost.
                solo = step_cost([t])
                if new_a + solo < cost[a] - _EPS:
                    detach(t, a)
                    steps.append([t])
                    send_used.append({t.src})
                    recv_used.append({t.dst})
                    cost[a] = new_a
                    cost.append(solo)
                    improved_any = True

        # ---- swap phase: unblock the costliest steps
        by_cost_desc = sorted(
            range(len(steps)), key=lambda i: (-cost[i], i)
        )
        for a in by_cost_desc[:_SWAP_TOP_K]:
            if evals >= budget:
                break
            for t in sorted(steps[a], key=lambda t: (t.src, t.dst)):
                if evals >= budget:
                    break
                if t not in steps[a]:
                    continue
                swapped = False
                for b in sorted(
                    range(len(steps)), key=lambda i: (cost[i], i)
                ):
                    if b == a or evals >= budget:
                        continue
                    for u in sorted(steps[b], key=lambda x: (x.src, x.dst)):
                        rest_a_send = send_used[a] - {t.src}
                        rest_a_recv = recv_used[a] - {t.dst}
                        rest_b_send = send_used[b] - {u.src}
                        rest_b_recv = recv_used[b] - {u.dst}
                        if (
                            u.src in rest_a_send
                            or u.dst in rest_a_recv
                            or t.src in rest_b_send
                            or t.dst in rest_b_recv
                        ):
                            continue
                        if evals >= budget:
                            break
                        new_a = step_cost(
                            [x for x in steps[a] if x != t] + [u]
                        )
                        new_b = step_cost(
                            [x for x in steps[b] if x != u] + [t]
                        )
                        if new_a + new_b < cost[a] + cost[b] - _EPS:
                            detach(t, a)
                            detach(u, b)
                            attach(u, a)
                            attach(t, b)
                            cost[a], cost[b] = new_a, new_b
                            swapped = improved_any = True
                            break
                    if swapped:
                        break

    refined = Schedule(
        nprocs=pattern.nprocs,
        steps=tuple(Step(tuple(s)) for s in steps if s),
        name=name,
        exchange_order=LOWER_RECV_FIRST,
    )
    # The moves preserve every invariant by construction; lint anyway and
    # fall back to the seed rather than ever returning a broken schedule.
    if not lint_schedule(refined, pattern).ok:  # pragma: no cover - safety net
        return base
    return refined
