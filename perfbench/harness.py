"""Shared plumbing of the perfbench workloads.

Every workload module exposes the same small surface:

* ``NAME``, ``CYCLE_SECONDS`` (CPU seconds one cycle of its op sequence
  takes on the reference machine) and ``SETUP_REPEATS`` (setups
  before the loop, and as many again after it); ``REF_EVERY`` (ops per
  timed segment, see :func:`timed_ops`); optionally ``MIN_CYCLES``;
* ``setup(seed)`` -> a state object, timed as ``setup_s``;
* ``run(state, cycles, traced, expected)`` -> :class:`Loop`;
* optionally ``CLASS_LABELS``, the latency classes of the percentile
  placement check in ascending order of latency; ``run`` then records
  the class of every op in :attr:`Loop.op_class`.

A run always executes whole cycles, so two runs with the same seed and
``--seconds`` do identical work; the cycle count is derived from the
requested seconds and the committed per-cycle estimate, never from the
clock.

Every time the benchmark reports is CPU time of this process
(:data:`clock`).  The program is single-threaded, CPU-bound and never
waits, so on an idle machine its CPU time is its wall time; on a shared
virtual machine wall time also counts the intervals in which the
hypervisor ran someone else (steal), which swung identical runs by up
to 2x.  Wall time is kept for the report, which prints the steal share.

CPU time is not steady either on a shared host: what other tenants run
on the same cores and caches slowed identical runs by more than 2x, in
phases that last from seconds to tens of minutes.  So the loop is timed
in segments, and a fixed :func:`reference` computation that never calls
the program is timed before the first segment and after each one (and
around every setup), outside the timings.  Reported times are rescaled
to the reference speed: a segment's CPU seconds are multiplied by
:data:`REFERENCE_SECONDS` over the mean of its two reference samples,
raised to :data:`ELASTICITY`.  A change to the program moves the
rescaled figures exactly as it moves the raw ones; a change of host
speed moves both the program and the reference, and largely cancels.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Table 11's synthetic grid: densities x message sizes (bytes).
DENSITIES = (0.10, 0.25, 0.50, 0.75)
SIZES = (16, 64, 256, 1024)

#: The benchmark's clock: CPU seconds of this process.
clock = time.process_time

#: metric name -> unit for the five end-to-end metrics.
END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    """What one timed loop did: per-op latencies, checks, layer times."""

    latencies: List[float] = field(default_factory=list)
    #: Placement class of each op (index into the workload's CLASS_LABELS).
    op_class: List[int] = field(default_factory=list)
    #: (ops, CPU seconds, wall seconds) of each timed segment of the
    #: loop; the seconds cover the ops plus their per-op output checks.
    segments: List[Tuple[int, float, float]] = field(default_factory=list)
    #: Reference samples (CPU seconds): one before the first segment and
    #: one after each segment.
    refs: List[float] = field(default_factory=list)
    failed: int = 0
    #: Sum of seconds spent inside timed layer calls, by layer.
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    #: Seconds inside the outermost timed layer calls of each op.
    covered: float = 0.0
    #: Exact counts read from the program (messages, allocations, ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics a workload computes itself: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        """CPU seconds of the whole loop, reference samples excluded."""
        return sum(cpu for _, cpu, _ in self.segments)

    @property
    def wall(self) -> float:
        return sum(wall for _, _, wall in self.segments)

    def add_layer(self, name: str, seconds: float) -> None:
        self.layer_seconds[name] = self.layer_seconds.get(name, 0.0) + seconds

    def add_count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


#: CPU seconds :func:`reference` takes at the speed the reported times
#: are rescaled to (about its median on the reference host).
REFERENCE_SECONDS = 0.008
#: How much more the program's CPU time moves with the host's speed than
#: the reference's does (log-log slope).  Over twelve serve_n32 runs
#: whose reference medians spanned 5.7-10.5 ms, raw throughput, p50 and
#: p90 moved with slopes -1.36, 1.39 and 1.34 (|correlation| >= 0.96);
#: irregular_n32 ops in a 150 s probe moved with slope 1.30.
ELASTICITY = 1.35

_REF_INTS = np.arange(1024, dtype=np.int64)
_REF_FLOATS = np.random.default_rng(0).random(100_000)


def reference() -> float:
    """CPU seconds of a fixed computation that never calls the program:
    an interpreter loop, hashing and small sorts, and sorts and scans of
    a 0.8 MB array, about 8 ms in all.  In a probe on the reference
    host, this mix followed the slow phases of irregular_n32's ops
    (correlation 0.97 over ~4 s windows) better than either half alone
    or than JSON or dict churn."""
    t0 = clock()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(150):
        hashlib.sha256(_REF_INTS.tobytes()).digest()
        np.sort(_REF_INTS[::-1])
    for _ in range(2):
        np.argsort(_REF_FLOATS)
        np.cumsum(_REF_FLOATS)
    return clock() - t0


def speed(before: float, after: float) -> float:
    """Factor that rescales CPU seconds measured between two reference
    samples to the reference speed (below 1 when the host was slow)."""
    return (2 * REFERENCE_SECONDS / (before + after)) ** ELASTICITY


def timed_ops(loop: Loop, seq: list, every: int):
    """Iterate ``seq`` in timed segments of ``every`` items, taking a
    reference sample before the first segment and after each one."""
    loop.refs.append(reference())
    wall, mark, done = time.perf_counter(), clock(), 0
    for i, item in enumerate(seq):
        yield item
        if (i + 1) % every == 0 or i + 1 == len(seq):
            loop.segments.append(
                (i + 1 - done, clock() - mark, time.perf_counter() - wall)
            )
            done = i + 1
            loop.refs.append(reference())
            wall, mark = time.perf_counter(), clock()


def speeds(loop: Loop) -> List[float]:
    """:func:`speed` of each segment of the loop."""
    return [speed(a, b) for a, b in zip(loop.refs, loop.refs[1:])]


def rescaled(loop: Loop) -> Tuple[float, List[float]]:
    """The loop's CPU seconds and per-op latencies at the reference speed."""
    seconds, latencies, start = 0.0, [], 0
    for (n, cpu, _), factor in zip(loop.segments, speeds(loop)):
        seconds += cpu * factor
        latencies += [t * factor for t in loop.latencies[start : start + n]]
        start += n
    return seconds, latencies


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    return float(np.percentile(np.asarray(values, dtype=float), q * 100.0))


def beyond(values: List[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


def rank_class(counts: List[int], q: float, margin: float) -> int:
    """Index of the class whose block holds the ``q`` rank, or -1.

    ``counts`` are exact sample counts per class, in ascending latency
    order; the ``q`` rank must sit at least ``margin`` (a share of all
    samples) away from both edges of its class's block.
    """
    total = sum(counts)
    rank = q * total
    lo = 0
    for i, c in enumerate(counts):
        hi = lo + c
        if lo + margin * total <= rank <= hi - margin * total:
            return i
        lo = hi
    return -1


#: Share of a class's samples cut from each end of its observed range.
RANGE_TRIM = 0.05


def placement(loop: Loop, q: float, margin: float) -> Tuple[int, int, float]:
    """Where the ``q`` percentile of the loop's latencies sits.

    Returns ``(by_count, by_latency, value)``: the class whose block of
    exact op counts holds the ``q`` rank (see :func:`rank_class`), the
    only class whose observed latency range holds the measured ``q``
    percentile ``value``, and that value.  Either index is -1 when no
    single class qualifies.  A class's observed range runs from its
    5th to its 95th percentile, so one stray sample does not widen it.
    The placement holds when both indices name the same class: the
    percentile then reads one class, away from any neighbour's values.
    """
    nclass = max(loop.op_class) + 1
    counts = [loop.op_class.count(k) for k in range(nclass)]
    by_count = rank_class(counts, q, margin)
    value = percentile(loop.latencies, q)
    inside = []
    for k in range(nclass):
        lat = [t for t, c in zip(loop.latencies, loop.op_class) if c == k]
        if lat and (
            percentile(lat, RANGE_TRIM) <= value <= percentile(lat, 1 - RANGE_TRIM)
        ):
            inside.append(k)
    by_latency = inside[0] if len(inside) == 1 else -1
    return by_count, by_latency, value


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def synthetic_matrix(
    nprocs: int, density: float, nbytes: int, rng: np.random.Generator
) -> np.ndarray:
    """Table 11 synthetic pattern: ``density`` of the off-diagonal slots
    carry ``nbytes`` each, chosen uniformly by ``rng``."""
    slots = np.flatnonzero(~np.eye(nprocs, dtype=bool))
    k = round(density * len(slots))
    m = np.zeros(nprocs * nprocs, dtype=np.int64)
    m[rng.choice(slots, size=k, replace=False)] = nbytes
    return m.reshape(nprocs, nprocs)


def load_expected() -> Dict[str, Dict[str, Dict[str, float]]]:
    return json.loads(EXPECTED_PATH.read_text())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(kernel: str) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": kernel,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def end_to_end(
    loop: Loop, setup_times: List[float], peak_rss: float
) -> Dict[str, float]:
    """Throughput and latency percentiles over the whole loop, and the
    median setup, all at the reference speed (``setup_times`` are
    rescaled already)."""
    seconds, latencies = rescaled(loop)
    return {
        "ops_per_s": loop.attempted / seconds,
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss,
    }
