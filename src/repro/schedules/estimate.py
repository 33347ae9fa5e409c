"""Closed-form schedule cost estimation (no simulation).

A fast analytic approximation of a schedule's execution time, used to
rank candidate schedules cheaply (e.g. inside a runtime system choosing
a scheduler per pattern, the setting of the paper's Section 4) and as a
sanity cross-check on the simulator.

Model: steps execute in sequence; a step costs the *maximum over
processors* of the sequential message work that processor performs in
it — for an exchange, two message times back to back (the Figure 2/3
orderings are sequential per pair); for the linear family, the
receiver's serialized drain of all its senders.  A message costs
overheads plus packetized wire time at its route's level bandwidth,
degraded by the same capped contention factor the fluid model applies
when the step loads an upper link beyond its capacity profile.

All steps are priced in one NumPy pass over the schedule's columns
(:func:`estimate_step_times`), each to the bits a per-transfer loop
gives it.

It deliberately ignores cross-step pipelining (a fast pair starting its
next step early) and routing jitter, so it is an *approximation*, not a
bound; the tests check it tracks the simulator within a modest factor
across the paper's workloads, and that it ranks LEX/PEX correctly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..machine.params import (
    CM5Params,
    FAT_TREE_ARITY,
    PACKET_BYTES,
    PACKET_PAYLOAD_BYTES,
    MachineConfig,
)
from .schedule import Schedule, first_occurrence

__all__ = ["estimate_schedule_time", "estimate_step_times"]


def wire_bytes_of(nbytes: np.ndarray) -> np.ndarray:
    """:func:`~repro.machine.params.wire_bytes` elementwise, as floats
    of the same values (dividing by 16 commutes with rounding)."""
    return np.maximum(np.ceil(nbytes / PACKET_PAYLOAD_BYTES), 1.0) * PACKET_BYTES


def level_bandwidths(
    config: MachineConfig, params: CM5Params, level: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.machine.params.CM5Params.level_bandwidth` elementwise."""
    levels = range(1, config.levels + 1)
    return np.array([params.level_bandwidth(top) for top in levels])[level - 1]


def busiest_rank(
    columns: np.ndarray,
    at_src: Sequence[np.ndarray],
    at_dst: Sequence[np.ndarray],
    nsteps: int,
    nprocs: int,
) -> np.ndarray:
    """Per step, the largest per-rank sum of work: the terms ``at_src``
    charged to each source, then ``at_dst`` to each destination,
    transfer by transfer, each rank's terms added in that order
    (``np.bincount`` adds in order).  An empty step costs 0.0."""
    step, src, dst = columns[:3]
    ends = (step * nprocs + src,) * len(at_src) + (step * nprocs + dst,) * len(at_dst)
    slots, inverse = np.unique(np.stack(ends, axis=1), return_inverse=True)
    work = np.stack((*at_src, *at_dst), axis=1).ravel()
    sums = np.bincount(inverse.ravel(), weights=work, minlength=slots.size)
    out = np.zeros(nsteps)
    owner = slots // nprocs
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    out[owner[first]] = np.maximum.reduceat(sums, first) if slots.size else 0.0
    return out


def estimate_step_times(
    columns: np.ndarray,
    nsteps: int,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> np.ndarray:
    """Analytic cost of each of ``nsteps`` steps given as columns
    (:attr:`~repro.schedules.schedule.Schedule.columns`, step indices
    non-decreasing): the max over processors of their sequential work.

    A message's rate is its route level's bandwidth, capped at each
    upper link it climbs by the link's capacity shared among its load:
    the *distinct* senders (up) or receivers (down) below it, since a
    rank injects or drains one message at a time (the synchronous
    rendezvous).  This keeps the estimator honest on the linear family,
    whose N-1 messages per step share one serialized receiver.
    """
    params = params or config.params
    nprocs = config.nprocs
    step, src, dst, nbytes, pack, unpack = columns
    top = config.route_levels(src, dst)
    rate = level_bandwidths(config, params, top)
    for level in range(2, int(top.max(initial=1)) + 1):
        rows = np.flatnonzero(top >= level)
        span = FAT_TREE_ARITY ** (level - 1)
        for ends in (src[rows], dst[rows]):
            # Distinct endpoints per (step, subtree of ``span`` leaves).
            slot = step[rows] * nprocs + ends
            groups, count = np.unique(np.unique(slot) // span, return_counts=True)
            load = count[np.searchsorted(groups, slot // span)]
            penalty = np.minimum(
                1.0 + params.switch_contention * (load - 1), params.contention_cap
            )
            link = span * params.level_bandwidth(level) / penalty / load
            rate[rows] = np.minimum(rate[rows], link)
    wire = wire_bytes_of(nbytes) / rate
    # The pack memcpy happens on the sender, the unpack on the receiver;
    # charging the sum to both ends double-counts the store-and-forward
    # reshuffle (REX pays it twice over).  A serialized receiver overlaps
    # later senders' setup with its own drain: messages after its first
    # in a step cost service + wire only.
    first = first_occurrence(step, dst, ordered=True) == np.arange(step.size)
    recv = np.where(first, params.zero_byte_latency, params.recv_overhead)
    send = params.zero_byte_latency + wire + pack / params.memcpy_bandwidth
    recv = recv + wire + unpack / params.memcpy_bandwidth
    return busiest_rank(columns, (send,), (recv,), nsteps, nprocs)


def estimate_schedule_time(
    schedule: Schedule,
    config: MachineConfig,
    params: Optional[CM5Params] = None,
) -> float:
    """Sum of analytic step costs — a simulation-free time estimate."""
    if schedule.nprocs != config.nprocs:
        raise ValueError(
            f"schedule is for {schedule.nprocs} procs, machine has "
            f"{config.nprocs}"
        )
    times = estimate_step_times(schedule.columns, schedule.nsteps, config, params)
    # Python's sum adds in step order, as the per-step loop did;
    # ``np.sum`` adds pairwise and would change the last bits.
    return sum(times.tolist())
