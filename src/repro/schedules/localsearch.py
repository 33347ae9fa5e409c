"""Local-search refinement scheduler for irregular patterns ("local").

The paper's GS/BS are one-shot constructive heuristics; the König
coloring (:mod:`repro.schedules.coloring`) is step-optimal but blind to
bytes and locality.  This module closes the loop: start from the better
of the two seeds and *refine* the step assignment with cost-guided local
moves, priced by the analytic estimator
(:func:`repro.schedules.estimate.estimate_step_times`) — the optimizing
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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import obs
from ..machine.params import MachineConfig
from .coloring import coloring_schedule
from .estimate import estimate_step_times
from .greedy import greedy_schedule
from .pattern import CommPattern
from .schedule import LOWER_RECV_FIRST, Schedule
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
    seeds = [
        greedy_schedule(pattern, name=name),
        coloring_schedule(pattern, name=name),
    ]
    seed_costs = [
        sum(estimate_step_times(s.columns, s.nsteps, cfg, params).tolist(), 0.0)
        for s in seeds
    ]
    base = seeds[min(range(len(seeds)), key=lambda i: (seed_costs[i], i))]
    if base.nsteps == 0:
        return base

    # Each step is a list of indices into the seed's columns; a pattern
    # names each (src, dst) pair once, so an index is a transfer.
    cols = base.columns
    src, dst = cols[1].tolist(), cols[2].tolist()
    bounds = np.searchsorted(cols[0], np.arange(base.nsteps + 1)).tolist()
    steps = [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    cost: List[float] = estimate_step_times(cols, base.nsteps, cfg, params).tolist()
    send_used: List[Set[int]] = [{src[t] for t in s} for s in steps]
    recv_used: List[Set[int]] = [{dst[t] for t in s} for s in steps]

    n_messages = len(src)
    budget = (
        max_evals if max_evals is not None else 80 * max(1, n_messages) + 2000
    )
    evals = 0

    # Step costs by content (the transfer order sets the last bits).  The
    # search prefetches the candidates it may try next, so one NumPy pass
    # prices a batch of them.
    priced: Dict[Tuple[int, ...], float] = {}

    def prefetch(candidates: List[List[int]]) -> None:
        todo = list({tuple(c): 0 for c in candidates if c and tuple(c) not in priced})
        if todo:
            batch = cols[:, [t for c in todo for t in c]]
            batch[0] = np.repeat(np.arange(len(todo)), [len(c) for c in todo])
            times = estimate_step_times(batch, len(todo), cfg, params).tolist()
            priced.update(zip(todo, times))

    def step_cost(transfers: List[int]) -> float:
        nonlocal evals
        evals += 1
        prefetch([transfers])
        return priced.get(tuple(transfers), 0.0)  # an empty step is free

    def fits(t: int, b: int) -> bool:
        return src[t] not in send_used[b] and dst[t] not in recv_used[b]

    def detach(t: int, a: int) -> None:
        steps[a].remove(t)
        send_used[a].discard(src[t])
        recv_used[a].discard(dst[t])

    def attach(t: int, b: int) -> None:
        steps[b].append(t)
        send_used[b].add(src[t])
        recv_used[b].add(dst[t])

    def by_pair(t: int) -> Tuple[int, int]:
        return (src[t], dst[t])

    def without(a: int, t: int) -> List[int]:
        return [x for x in steps[a] if x != t]

    def swappable(t: int, a: int, u: int, b: int) -> bool:
        # t (in step a) and u (in step b) each fit the other's step.
        return not (
            src[u] in send_used[a] - {src[t]}
            or dst[u] in recv_used[a] - {dst[t]}
            or src[t] in send_used[b] - {src[u]}
            or dst[t] in recv_used[b] - {dst[u]}
        )

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
            units = sorted(steps[a], key=by_pair)
            rng.shuffle(units)  # deterministic in `seed`
            for k, t in enumerate(units):
                if evals >= budget:
                    break
                if t not in steps[a]:
                    continue  # displaced by an earlier accepted swap
                removed = without(a, t)
                if tuple(removed) not in priced:
                    prefetch([without(a, u) for u in units[k:]])
                new_a = step_cost(removed)
                gain_a = cost[a] - new_a
                if gain_a <= _EPS:
                    # Adding a transfer never cheapens a step, so a move
                    # only pays when the source step gets cheaper.
                    continue
                placed = False
                targets = [
                    b
                    for b in sorted(range(len(steps)), key=lambda i: (cost[i], i))
                    if b != a and fits(t, b)
                ]
                prefetch([steps[b] + [t] for b in targets[: budget - evals]] + [[t]])
                for b in targets:
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
                    send_used.append({src[t]})
                    recv_used.append({dst[t]})
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
            for t in sorted(steps[a], key=by_pair):
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
                    trades = [
                        (u, without(a, t) + [u], without(b, u) + [t])
                        for u in sorted(steps[b], key=by_pair)
                        if swappable(t, a, u, b)
                    ]
                    prefetch([c for _, *pair in trades[: budget - evals] for c in pair])
                    for u, into_a, into_b in trades:
                        if evals >= budget:
                            break
                        new_a = step_cost(into_a)
                        new_b = step_cost(into_b)
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

    kept = [s for s in steps if s]
    refined_cols = cols[:, [t for s in kept for t in s]]
    refined_cols[0] = np.repeat(np.arange(len(kept)), [len(s) for s in kept])
    refined = Schedule.from_columns(
        pattern.nprocs, refined_cols, name=name, exchange_order=LOWER_RECV_FIRST
    )
    # The moves preserve every invariant by construction; lint anyway and
    # fall back to the seed rather than ever returning a broken schedule.
    if not lint_schedule(refined, pattern).ok:  # pragma: no cover - safety net
        return base
    return refined
