"""exchange_n128: complete exchange on a 128-node partition.

One op builds one complete-exchange schedule (PEX, BEX or LEX) and
executes it on the simulated machine: 128 x 127 = 16,256 messages, about
1.0-1.4 s of host time, more than 95% of it in ``execute_schedule``.
A cycle is the nine (algorithm, message size) classes in a seeded
order; sizes 0 / 512 / 1920 B change the contention the fluid network
resolves without changing the host cost per op much.  This is where the
``sim`` engine and the ``machine.contention`` rate recompute dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from harness import Loop, clock, timed_ops

from repro import MachineConfig, obs
from repro.machine import FatTree
from repro.schedules import (
    balanced_exchange,
    execute_schedule,
    linear_exchange,
    pairwise_exchange,
)

NAME = "exchange_n128"
NPROCS = 128
WARMUP_NPROCS = 64
CYCLE_SECONDS = 11.5
#: Three cycles (27 ops) leave at least 10 samples beyond the p50.
MIN_CYCLES = 3
SETUP_REPEATS = 4
#: One op (about a second) per timed segment.
REF_EVERY = 1

BUILDERS = {
    "pex": pairwise_exchange,
    "bex": balanced_exchange,
    "lex": linear_exchange,
}
NBYTES = (0, 512, 1920)
CLASSES: List[Tuple[str, int]] = [(a, b) for a in BUILDERS for b in NBYTES]


def class_key(algorithm: str, nbytes: int) -> str:
    return f"{algorithm}_{nbytes}"


@dataclass
class State:
    config: MachineConfig
    seed: int


def setup(seed: int) -> State:
    """Machine model for N=128 plus a warm-up execution of a PEX at
    N=64 (4,032 messages, about a quarter of a second): the same engine
    path as an op, so first-use costs stay out of op 1 and ``setup_s``
    measures engine work rather than a few milliseconds of set-up."""
    config = MachineConfig(NPROCS)
    FatTree(config)
    warm_up = pairwise_exchange(WARMUP_NPROCS, 512)
    execute_schedule(warm_up, MachineConfig(WARMUP_NPROCS))
    return State(config=config, seed=seed)


def op_sequence(seed: int, cycles: int) -> List[Tuple[str, int]]:
    rng = np.random.default_rng([seed, 128])
    seq: List[Tuple[str, int]] = []
    for _ in range(cycles):
        seq.extend(CLASSES[i] for i in rng.permutation(len(CLASSES)))
    return seq


def run(state: State, cycles: int, traced: bool, expected: dict) -> Loop:
    loop = Loop()
    seq = op_sequence(state.seed, cycles)
    for algorithm, nbytes in timed_ops(loop, seq, REF_EVERY):
        t0 = clock()
        schedule = BUILDERS[algorithm](NPROCS, nbytes)
        t1 = clock()
        if traced:
            with obs.tracing() as tracer:
                result = execute_schedule(schedule, state.config)
            counters = tracer.metrics.counters
            loop.add_count("net.allocations", counters["net.allocations"].value)
        else:
            result = execute_schedule(schedule, state.config)
        t2 = clock()
        loop.latencies.append(t2 - t0)
        loop.covered += t2 - t0
        loop.add_layer("build", t1 - t0)
        loop.add_layer("execute", t2 - t1)
        loop.add_count("sim.messages", result.sim.message_count)
        want = expected[class_key(algorithm, nbytes)]
        if (
            result.time != want["makespan"]
            or result.sim.message_count != want["messages"]
        ):
            loop.failed += 1
    return loop


def reference() -> dict:
    """Expected makespan and message count per class, from this program."""
    config = MachineConfig(NPROCS)
    out = {}
    for algorithm, nbytes in CLASSES:
        result = execute_schedule(BUILDERS[algorithm](NPROCS, nbytes), config)
        out[class_key(algorithm, nbytes)] = {
            "makespan": result.time,
            "messages": result.sim.message_count,
        }
    return out
