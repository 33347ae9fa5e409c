"""irregular_n32: the four irregular schedulers on Tables 11 and 12.

One op is ``schedule_irregular`` -> ``validate_schedule`` ->
``execute_schedule`` for one (pattern, algorithm) pair on 32 nodes.  The
patterns are the 16 Table 11 synthetics (densities 10/25/50/75% x
16/64/256/1024 B) and the five Table 12 CG/Euler halo patterns; with
LS/PS/BS/GS that is 84 ops per cycle of about 10-90 ms each.  At N=32
few flows run at once, so build plus lint are a visible share of each op:
a ``schedules`` speed-up shows here, a contention-recompute change
should show little.  Setup runs the ``apps`` pipeline (mesh -> RCB ->
halo) for the Table 12 patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    DENSITIES,
    SIZES,
    Loop,
    clock,
    synthetic_matrix,
    timed_ops,
)

from repro import MachineConfig, obs
from repro.apps import build_halo, paper_mesh, rcb_partition, workload_names
from repro.apps.mesh import PAPER_MESHES
from repro.schedules import (
    CommPattern,
    LintError,
    execute_schedule,
    greedy_schedule,
    schedule_irregular,
    validate_schedule,
)

NAME = "irregular_n32"
NPROCS = 32
CYCLE_SECONDS = 2.6
SETUP_REPEATS = 2
#: Ops per timed segment: about half a second.
REF_EVERY = 16
ALGORITHMS = ("linear", "pairwise", "balanced", "greedy")

#: Op classes for the percentile placement check, in ascending order of
#: message count (which sets most of the cost of an op): 10% and cg16k
#: (15%); 25%, the Euler meshes (38-47%) and 50%; 75%.  The algorithm
#: and the message size also change an op's cost.  Measured latencies of
#: 25%/Euler ops and of 50% ops overlap around the p50, so those share
#: one class; the placement check measures the overlap that remains.
CLASS_EDGES = (0.20, 0.60, 1.0)
CLASS_LABELS = tuple(f"density<={edge:.2f}" for edge in CLASS_EDGES)


@dataclass
class State:
    config: MachineConfig
    seed: int
    patterns: List[Tuple[str, CommPattern]]
    #: apps stage -> seconds summed over the five Table 12 meshes.
    stages: Dict[str, float] = field(default_factory=dict)


def synthetic_patterns() -> List[Tuple[str, CommPattern]]:
    """The 16 Table 11 patterns; fixed, so expected makespans can be
    committed (the run seed only orders the ops)."""
    out = []
    for di, density in enumerate(DENSITIES):
        for si, nbytes in enumerate(SIZES):
            rng = np.random.default_rng([11, di, si])
            m = synthetic_matrix(NPROCS, density, nbytes, rng)
            out.append((f"t11_d{round(density * 100)}_b{nbytes}", CommPattern(m)))
    return out


def app_patterns(stages: Dict[str, float]) -> List[Tuple[str, CommPattern]]:
    """Table 12 halo patterns, timing each ``apps`` stage into ``stages``."""
    out = []
    for name in workload_names():
        words = PAPER_MESHES[name][4]
        t0 = clock()
        mesh = paper_mesh(name)
        t1 = clock()
        labels = rcb_partition(mesh.points, NPROCS)
        t2 = clock()
        halo = build_halo(mesh, labels, NPROCS)
        pattern = halo.pattern(word_bytes=8, words_per_vertex=words)
        t3 = clock()
        for stage, dt in (("mesh", t1 - t0), ("partition", t2 - t1), ("halo", t3 - t2)):
            stages[stage] = stages.get(stage, 0.0) + dt
        out.append((name, pattern))
    return out


def setup(seed: int) -> State:
    stages: Dict[str, float] = {}
    patterns = app_patterns(stages) + synthetic_patterns()
    config = MachineConfig(NPROCS)
    # Warm-up: first-use costs of the N=32 machine model stay out of op 1.
    warm = patterns[0][1]
    execute_schedule(greedy_schedule(warm), config)
    return State(config=config, seed=seed, patterns=patterns, stages=stages)


def op_key(pattern_name: str, algorithm: str) -> str:
    return f"{pattern_name}/{algorithm}"


def density_class(pattern: CommPattern) -> int:
    """Placement class of a pattern (see :data:`CLASS_EDGES`)."""
    return next(i for i, edge in enumerate(CLASS_EDGES) if pattern.density <= edge)


def op_sequence(state: State, cycles: int) -> List[Tuple[str, CommPattern, str]]:
    ops = [(n, p, a) for n, p in state.patterns for a in ALGORITHMS]
    rng = np.random.default_rng([state.seed, 32])
    seq = []
    for _ in range(cycles):
        seq.extend(ops[i] for i in rng.permutation(len(ops)))
    return seq


def run(state: State, cycles: int, traced: bool, expected: dict) -> Loop:
    loop = Loop()
    seq = op_sequence(state, cycles)
    for name, pattern, algorithm in timed_ops(loop, seq, REF_EVERY):
        t0 = clock()
        schedule = schedule_irregular(pattern, algorithm)
        t1 = clock()
        try:
            validate_schedule(schedule, pattern)
            clean = True
        except LintError:
            clean = False
        t2 = clock()
        if traced:
            with obs.tracing() as tracer:
                result = execute_schedule(schedule, state.config)
            counters = tracer.metrics.counters
            loop.add_count("net.allocations", counters["net.allocations"].value)
        else:
            result = execute_schedule(schedule, state.config)
        t3 = clock()
        loop.latencies.append(t3 - t0)
        loop.op_class.append(density_class(pattern))
        loop.covered += t3 - t0
        loop.add_layer("build", t1 - t0)
        loop.add_layer("lint", t2 - t1)
        loop.add_layer("execute", t3 - t2)
        loop.add_count("sim.messages", result.sim.message_count)
        want = expected[op_key(name, algorithm)]
        if (
            not clean
            or result.time != want["makespan"]
            or result.sim.message_count != want["messages"]
        ):
            loop.failed += 1
    return loop


def reference() -> dict:
    state = setup(0)
    out = {}
    for name, pattern in state.patterns:
        for algorithm in ALGORITHMS:
            schedule = schedule_irregular(pattern, algorithm)
            validate_schedule(schedule, pattern)
            result = execute_schedule(schedule, state.config)
            out[op_key(name, algorithm)] = {
                "makespan": result.time,
                "messages": result.sim.message_count,
            }
    return out
