"""Regeneration of every table and figure in the paper's evaluation.

Each ``figN_data`` / ``tableN_data`` function sweeps exactly the
parameter grid of the corresponding exhibit and returns structured
results; the benchmark harness and the CLI are thin wrappers around
these.  Scalar results are memoized through
:func:`repro.analysis.cache.default_cache`, so a full regeneration is
incremental across runs.

Experiment index (also in DESIGN.md):

========  ==========================================================
fig5      complete exchange vs message size, 32 nodes
fig6/7/8  complete exchange vs machine size (0/256, 512, 1920 bytes)
table5    2-D FFT with each exchange algorithm, 32 and 256 nodes
fig10     broadcast vs message size, 32 nodes
fig11     REB vs system broadcast vs machine size
table11   irregular scheduling of synthetic densities, 32 nodes
table12   irregular scheduling of real application patterns
========  ==========================================================
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..apps.fft2d import fft2d_time
from ..apps.workloads import Workload, paper_workload, workload_names
from ..cmmd.api import Comm
from ..cmmd.collectives import broadcast_linear, broadcast_recursive
from ..cmmd.program import run_spmd
from ..machine.params import CM5Params, DEFAULT_PARAMS, MachineConfig
from ..schedules.executor import execute_schedule
from ..schedules.irregular import (
    EXCHANGE_ALGORITHMS,
    algorithm_names,
    schedule_irregular,
)
from ..schedules.pattern import CommPattern
from .cache import default_cache
from .figures import FigureData

__all__ = [
    "exchange_time",
    "broadcast_time",
    "irregular_time",
    "fft_time",
    "fig5_data",
    "fig678_data",
    "table5_data",
    "fig10_data",
    "fig11_data",
    "table11_data",
    "table12_data",
    "EXCHANGE_ALGS",
    "BROADCAST_KINDS",
]

EXCHANGE_ALGS: Tuple[str, ...] = ("linear", "pairwise", "recursive", "balanced")
BROADCAST_KINDS: Tuple[str, ...] = ("lib", "reb", "system")

#: Figure sweep grids, straight from the paper.
FIG5_SIZES: Tuple[int, ...] = (0, 16, 64, 256, 512, 1024, 1536, 2048)
FIG678_MACHINES: Tuple[int, ...] = (16, 32, 64, 128, 256)
FIG10_SIZES: Tuple[int, ...] = (16, 64, 256, 1024, 2048, 4096, 8192)
FIG11_SIZES: Tuple[int, ...] = (256, 1024, 4096)


def _params_key(params: CM5Params) -> str:
    if params == DEFAULT_PARAMS:
        return "default"
    return f"h{hash(params) & 0xFFFFFFFF:08x}"


# ----------------------------------------------------------------------
# Cached scalar measurements
# ----------------------------------------------------------------------
def exchange_time(
    algorithm: str,
    nprocs: int,
    nbytes: int,
    params: Optional[CM5Params] = None,
    seed: int = 0,
) -> float:
    """Seconds for one complete exchange of ``nbytes`` per pair."""
    params = params or DEFAULT_PARAMS
    gen = EXCHANGE_ALGORITHMS[algorithm]
    key = f"xchg/{algorithm}/{nprocs}/{nbytes}/{seed}/{_params_key(params)}"

    def run() -> float:
        cfg = MachineConfig(nprocs, params)
        return execute_schedule(gen(nprocs, nbytes), cfg, seed=seed).time

    return default_cache().get_or_compute(key, run)


def _bcast_program(comm: Comm, kind: str, nbytes: int):
    if kind == "lib":
        yield from broadcast_linear(comm, 0, nbytes)
    elif kind == "reb":
        yield from broadcast_recursive(comm, 0, nbytes)
    elif kind == "system":
        yield comm.sys_broadcast(0, nbytes)
    else:  # pragma: no cover
        raise ValueError(f"unknown broadcast kind {kind!r}")


def broadcast_time(
    kind: str,
    nprocs: int,
    nbytes: int,
    params: Optional[CM5Params] = None,
    seed: int = 0,
) -> float:
    """Seconds for a one-to-all broadcast of ``nbytes`` from rank 0."""
    if kind not in BROADCAST_KINDS:
        raise ValueError(f"unknown broadcast kind {kind!r}")
    params = params or DEFAULT_PARAMS
    key = f"bcast/{kind}/{nprocs}/{nbytes}/{seed}/{_params_key(params)}"

    def run() -> float:
        cfg = MachineConfig(nprocs, params)
        return run_spmd(cfg, _bcast_program, kind, nbytes, seed=seed).makespan

    return default_cache().get_or_compute(key, run)


def irregular_time(
    pattern: CommPattern,
    algorithm: str,
    params: Optional[CM5Params] = None,
    seed: int = 0,
    cache_key: Optional[str] = None,
) -> float:
    """Seconds to complete ``pattern`` under the named scheduler.

    Pass ``cache_key`` (e.g. ``"synth/0.25/256/42"``) to enable disk
    memoization; anonymous patterns are always recomputed.
    """
    params = params or DEFAULT_PARAMS

    def run() -> float:
        cfg = MachineConfig(pattern.nprocs, params)
        sched = schedule_irregular(pattern, algorithm)
        return execute_schedule(sched, cfg, seed=seed).time

    if cache_key is None:
        return run()
    key = f"irr/{cache_key}/{algorithm}/{seed}/{_params_key(params)}"
    return default_cache().get_or_compute(key, run)


def fft_time(
    n: int,
    nprocs: int,
    algorithm: str,
    params: Optional[CM5Params] = None,
    seed: int = 0,
) -> float:
    """Seconds for the distributed 2-D FFT of an ``n x n`` array."""
    params = params or DEFAULT_PARAMS
    key = f"fft/{algorithm}/{nprocs}/{n}/{seed}/{_params_key(params)}"

    def run() -> float:
        cfg = MachineConfig(nprocs, params)
        return fft2d_time(n, cfg, algorithm, seed=seed).total_time

    return default_cache().get_or_compute(key, run)


# ----------------------------------------------------------------------
# Figure/table sweeps
# ----------------------------------------------------------------------
def fig5_data(
    sizes: Sequence[int] = FIG5_SIZES,
    nprocs: int = 32,
    algorithms: Sequence[str] = EXCHANGE_ALGS,
    params: Optional[CM5Params] = None,
) -> FigureData:
    """Figure 5: exchange time vs message size on one machine size."""
    fig = FigureData(
        name=f"Figure 5: complete exchange on {nprocs} nodes",
        xlabel="message size (bytes)",
        ylabel="time (ms)",
    )
    for alg in algorithms:
        ys = [exchange_time(alg, nprocs, s, params) * 1e3 for s in sizes]
        fig.add(alg, list(sizes), ys)
    return fig


def fig678_data(
    nbytes: int,
    machines: Sequence[int] = FIG678_MACHINES,
    algorithms: Sequence[str] = ("pairwise", "recursive", "balanced"),
    params: Optional[CM5Params] = None,
) -> FigureData:
    """Figures 6-8: exchange time vs machine size for one message size."""
    fig = FigureData(
        name=f"Figures 6-8: complete exchange, {nbytes}-byte messages",
        xlabel="processors",
        ylabel="time (ms)",
    )
    for alg in algorithms:
        ys = [exchange_time(alg, n, nbytes, params) * 1e3 for n in machines]
        fig.add(alg, list(machines), ys)
    return fig


def table5_data(
    machine_sizes: Sequence[int] = (32, 256),
    array_sizes: Sequence[int] = (256, 512, 1024, 2048),
    algorithms: Sequence[str] = EXCHANGE_ALGS,
    params: Optional[CM5Params] = None,
) -> Dict[Tuple[int, int], Dict[str, float]]:
    """Table 5: (nprocs, n) -> {algorithm: seconds}."""
    out: Dict[Tuple[int, int], Dict[str, float]] = {}
    for p in machine_sizes:
        for n in array_sizes:
            out[(p, n)] = {
                alg: fft_time(n, p, alg, params) for alg in algorithms
            }
    return out


def fig10_data(
    sizes: Sequence[int] = FIG10_SIZES,
    nprocs: int = 32,
    kinds: Sequence[str] = BROADCAST_KINDS,
    params: Optional[CM5Params] = None,
) -> FigureData:
    """Figure 10: broadcast time vs message size on 32 nodes."""
    fig = FigureData(
        name=f"Figure 10: broadcast on {nprocs} nodes",
        xlabel="message size (bytes)",
        ylabel="time (ms)",
    )
    for kind in kinds:
        ys = [broadcast_time(kind, nprocs, s, params) * 1e3 for s in sizes]
        fig.add(kind, list(sizes), ys)
    return fig


def fig11_data(
    machines: Sequence[int] = FIG678_MACHINES,
    sizes: Sequence[int] = FIG11_SIZES,
    params: Optional[CM5Params] = None,
) -> FigureData:
    """Figure 11: REB (per message size) and system broadcast vs machine size.

    The system broadcast is machine-size independent, so — like the
    paper — a single curve represents it (evaluated per machine size to
    prove the flatness).
    """
    fig = FigureData(
        name="Figure 11: recursive vs system broadcast",
        xlabel="processors",
        ylabel="time (ms)",
    )
    for s in sizes:
        ys = [broadcast_time("reb", n, s, params) * 1e3 for n in machines]
        fig.add(f"reb-{s}B", list(machines), ys)
    mid = sizes[len(sizes) // 2]
    ys = [broadcast_time("system", n, mid, params) * 1e3 for n in machines]
    fig.add(f"system-{mid}B", list(machines), ys)
    return fig


def table11_data(
    densities: Sequence[float] = (0.10, 0.25, 0.50, 0.75),
    msg_sizes: Sequence[int] = (256, 512),
    nprocs: int = 32,
    seed: int = 42,
    algorithms: Sequence[str] = tuple(algorithm_names()),
    params: Optional[CM5Params] = None,
) -> Dict[Tuple[float, int], Dict[str, float]]:
    """Table 11: (density, bytes) -> {algorithm: seconds}."""
    out: Dict[Tuple[float, int], Dict[str, float]] = {}
    for d in densities:
        for s in msg_sizes:
            pattern = CommPattern.synthetic(nprocs, d, s, seed=seed)
            out[(d, s)] = {
                alg: irregular_time(
                    pattern,
                    alg,
                    params,
                    cache_key=f"synth/{nprocs}/{d}/{s}/{seed}",
                )
                for alg in algorithms
            }
    return out


def table12_data(
    nprocs: int = 32,
    algorithms: Sequence[str] = tuple(algorithm_names()),
    params: Optional[CM5Params] = None,
) -> "Tuple[Dict[str, Dict[str, float]], Dict[str, Workload]]":
    """Table 12: workload -> {algorithm: seconds}, plus the workloads."""
    times: Dict[str, Dict[str, float]] = {}
    loads: Dict[str, Workload] = {}
    for name in workload_names():
        wl = paper_workload(name, nprocs)
        loads[name] = wl
        pat_id = hash(wl.pattern) & 0xFFFFFFFF
        times[name] = {
            alg: irregular_time(
                wl.pattern,
                alg,
                params,
                cache_key=f"real/{name}/{nprocs}/{pat_id:08x}",
            )
            for alg in algorithms
        }
    return times, loads
