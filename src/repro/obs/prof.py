"""Per-message hot-loop profiler (`repro profile`).

ROADMAP item 2 claims the remaining wall time at N>=256 is "diffuse
Python glue (~140 interpreter calls per message across
resume/dispatch/rendezvous/trace)".  This module turns that sentence
into a tracked artifact: :func:`run_phase_profile` executes one profile
workload under :func:`sys.setprofile` with a **marker table** mapping
engine code objects to phases, and attributes every interpreter-level
call ('call' + 'c_call' events) to the innermost enclosing phase —

==============  ======================================================
phase           owns
==============  ======================================================
``resume``      generator resumption (``Engine._resume``)
``dispatch``    request decode and routing (``Engine._dispatch`` and
                the barrier/collective checks)
``rendezvous``  send/recv posting and matching, transfer start,
                flow begin/complete
``arm``         network-event arming and the fluid-network solver
                (with the compiled kernel, every call into its
                ``begin`` or a ``FlowStore`` method)
``trace``       message/phase/retry records and rank-op spans
``queue``       event-heap push and the drain loop (``EventQueue.push``
                / ``EventQueue.run``, ``Engine.run``; with the compiled
                queue, the C calls of its ``push`` and ``run``)
``other``       everything else (schedule build glue, numpy, ...)
==============  ======================================================

Attribution is by *stack inheritance*: a frame whose code object is in
the marker table switches to its own phase; any other frame inherits
its caller's phase, so helpers and C calls land in the phase that
invoked them.  The exceptions are the compiled kernel's types and
functions, which have no code object: a C call bound to the compiled
event queue (:func:`repro.sim.events.event_queue`) counts as ``queue``,
and a call into the kernel's network entry point (its module function
``begin`` and the ``FlowStore`` methods) counts as ``arm``, wherever it
is made.  The arm–check–retire cycle the compiled drain loop runs
itself makes no call at all, so it shows only as the
``Engine._flow_complete`` calls it hands each retired flow to.

With the kernel loaded, the untraced exchange and irregular workloads
take the compiled schedule executor (see
:func:`repro.schedules.execute_schedule`): the ranks run inside the
compiled drain loop too, so such a profile has no ``resume``,
``dispatch`` or ``rendezvous`` calls at all: one ``queue`` call
(``run``), the engine's construction and the loop's callbacks (slot
growth, jitter blocks) under ``other``, and under ``arm`` only the
``FlowStore.set_table`` calls that point the store at its columns.  The
markers then describe the generator path, which the kernel-less build,
traced runs and fault plans (``fault_pex_n16_b256``) still take.  The
counted runs execute a schedule the warm-up already ran, so its cached
rank programs are built outside them: a profile counts the simulation,
not the schedule's construction.  The engine is deterministic, so
counts are exactly reproducible; a second plain-counter run (no phase
logic) provides the ``direct_total`` cross-check the acceptance
criterion compares against — the two count the same events, so they
agree exactly, but the table records both so a future refactor of the
profiler itself cannot silently skew the attribution.

The optional **sampling mode** (:func:`run_sampling_profile`) takes
wall-clock stack samples from a background thread and emits
collapsed-stack lines (``a;b;c <count>``) consumable by any flamegraph
renderer.  It is statistical, not deterministic — use it to *see*
shape, use phase mode to *gate* regressions.

Import note: this module imports the sim engine, so it is deliberately
NOT re-exported from :mod:`repro.obs` (the engine imports ``repro.obs``
at module load; an eager re-export would be a cycle).  Reach it as
``repro.obs.prof``.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PHASES",
    "PhaseReport",
    "marker_table",
    "run_phase_profile",
    "render_phase_table",
    "run_sampling_profile",
    "profile_workload_names",
]

#: Attribution phases, in table order.  ``other`` is the root phase a
#: frame inherits when nothing on the stack is marked.
PHASES = ("resume", "dispatch", "rendezvous", "arm", "trace", "queue", "other")


def marker_table() -> Dict[object, str]:
    """Code object -> phase for the engine's hot-loop entry points.

    Built lazily (imports the sim engine) and keyed by code objects, so
    the lookup in the profile callback is one dict probe on an
    identity-hashed key.
    """
    from ..machine.contention import FluidNetwork
    from ..sim.channels import RendezvousTable
    from ..sim.engine import Engine
    from ..sim.events import EventQueue
    from ..sim.trace import Trace
    from .span import Tracer

    table: Dict[object, str] = {}

    def mark(phase: str, *funcs: object) -> None:
        for fn in funcs:
            code = getattr(fn, "__code__", None)
            if code is not None:
                table[code] = phase

    mark("resume", Engine._resume)
    mark(
        "dispatch",
        Engine._dispatch,
        Engine._check_barrier,
        Engine._check_dst,
        Engine._join_collective,
        Engine._check_collective,
        Engine._complete_collective,
    )
    mark(
        "rendezvous",
        RendezvousTable.post_send,
        RendezvousTable.post_recv,
        RendezvousTable.purge_rank,
        Engine._post_send,
        Engine._post_isend,
        Engine._post_recv,
        Engine._start_transfer,
        Engine._flow_begin,
        Engine._flow_complete,
        Engine._flip_handle,
    )
    mark(
        "arm",
        Engine._arm_network_event,
        Engine._net_check,
        FluidNetwork.begin_flow,
        FluidNetwork.advance_to,
        FluidNetwork.earliest_completion,
        FluidNetwork.pop_completed_keys,
        FluidNetwork._recompute,
        FluidNetwork._compact,
    )
    mark(
        "trace",
        Trace.add_message,
        Trace.add_phase,
        Trace.add_retry,
        Engine._trace_op_begin,
        Tracer.op_begin,
        Tracer.op_end,
    )
    # The handlers the drain loop invokes carry their own markers.  The
    # compiled schedule executor invokes none of them.
    mark("queue", EventQueue.push, EventQueue.run, Engine.run)
    return table


def profile_workload_names() -> List[str]:
    """Profileable workload names: the union of full and quick lists."""
    from ..analysis.perf import perf_workloads

    names: List[str] = []
    for quick in (False, True):
        for wl in perf_workloads(quick):
            if wl.name not in names:
                names.append(wl.name)
    return sorted(names)


def _find_workload(name: str):
    from ..analysis.perf import perf_workloads

    for quick in (False, True):
        for wl in perf_workloads(quick):
            if wl.name == name:
                return wl
    raise ValueError(
        f"unknown profile workload {name!r}; known: "
        + ", ".join(profile_workload_names())
    )


def _message_count(result: object) -> int:
    sim = getattr(result, "sim", None)
    n = getattr(sim, "message_count", None)
    return int(n) if n else 0


@dataclass
class PhaseReport:
    """One phase-counter profiling run, ready to render or JSON-dump."""

    workload: str
    messages: int
    calls: Dict[str, int]
    direct_total: Optional[int]
    wall_seconds: float
    sim_ms: float = 0.0

    @property
    def total(self) -> int:
        return sum(self.calls.values())

    @property
    def calls_per_message(self) -> float:
        return self.total / self.messages if self.messages else 0.0

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro-profile/1",
            "workload": self.workload,
            "messages": self.messages,
            "calls": {p: self.calls.get(p, 0) for p in PHASES},
            "total": self.total,
            "calls_per_message": round(self.calls_per_message, 3),
            "direct_total": self.direct_total,
            "wall_seconds": round(self.wall_seconds, 3),
            "sim_ms": self.sim_ms,
        }


def run_phase_profile(name: str, direct_check: bool = True) -> PhaseReport:
    """Profile one workload's execute step with phase attribution.

    The schedule is built and executed once unprofiled; only a second
    execution runs under :func:`sys.setprofile`.  With ``direct_check``
    (the default) a third execution is counted by a bare event counter
    with no phase logic — the deterministic engine makes the two totals
    directly comparable (the acceptance bar is 10 %; in practice they
    are equal because both count the same 'call'/'c_call' stream).
    """
    from ..machine._fastfill import kernel
    from ..sim.events import event_queue

    wl = _find_workload(name)
    # Warm up on the schedule both counted runs execute: the first
    # execution builds the schedule's cached rank programs (and their
    # flat form, for the compiled executor) and populates lazy per-size
    # caches (path tables, ufunc setup), so the counted runs below see
    # the identical deterministic call stream of the simulation alone.
    sched = wl.build()
    wl.execute(sched)
    markers = marker_table()
    # Only a compiled queue's methods show up as C calls bound to it.
    queue_type = type(event_queue())
    fast = kernel()
    store_type = None if fast is None else fast.FlowStore
    counts: Dict[str, int] = {p: 0 for p in PHASES}
    stack: List[str] = ["other"]

    def _attr(frame, event, arg):
        if event == "call":
            phase = markers.get(frame.f_code)
            if phase is None:
                phase = stack[-1]
            stack.append(phase)
            counts[phase] += 1
        elif event == "return":
            if len(stack) > 1:
                stack.pop()
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            if type(owner) is queue_type:
                counts["queue"] += 1
            elif fast is not None and (owner is fast or type(owner) is store_type):
                counts["arm"] += 1
            else:
                counts[stack[-1]] += 1

    t0 = time.perf_counter()
    sys.setprofile(_attr)
    try:
        result = wl.execute(sched)
    finally:
        sys.setprofile(None)
    wall = time.perf_counter() - t0

    direct_total: Optional[int] = None
    if direct_check:
        box = [0]

        def _plain(frame, event, arg):
            if event == "call" or event == "c_call":
                box[0] += 1

        sys.setprofile(_plain)
        try:
            wl.execute(sched)
        finally:
            sys.setprofile(None)
        direct_total = box[0]

    return PhaseReport(
        workload=name,
        messages=_message_count(result),
        calls=counts,
        direct_total=direct_total,
        wall_seconds=wall,
        sim_ms=float(getattr(result, "time_ms", 0.0)),
    )


def render_phase_table(report: PhaseReport) -> str:
    """The per-message attribution table (committed to results/)."""
    lines = [
        f"per-message interpreter-call attribution — {report.workload}",
        f"messages: {report.messages}   "
        f"profiled wall: {report.wall_seconds:.1f}s   "
        f"sim time: {report.sim_ms:.3f} ms",
        "",
        f"{'phase':<12} {'calls':>12} {'calls/msg':>11} {'share':>8}",
        "-" * 46,
    ]
    total = report.total or 1
    msgs = report.messages or 1
    for phase in PHASES:
        n = report.calls.get(phase, 0)
        lines.append(
            f"{phase:<12} {n:>12} {n / msgs:>11.2f} {100.0 * n / total:>7.1f}%"
        )
    lines.append("-" * 46)
    lines.append(
        f"{'total':<12} {report.total:>12} "
        f"{report.calls_per_message:>11.2f} {'100.0%':>8}"
    )
    if report.direct_total is not None:
        direct_pm = report.direct_total / msgs
        delta = (
            abs(report.total - report.direct_total)
            / report.direct_total
            * 100.0
            if report.direct_total
            else 0.0
        )
        lines.append(
            f"direct sys.setprofile total: {report.direct_total} "
            f"({direct_pm:.2f} calls/msg, delta {delta:.2f}%)"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Sampling mode (collapsed stacks for flamegraphs)
# ----------------------------------------------------------------------
@dataclass
class _Sampler:
    interval: float
    target_id: int
    samples: Counter = field(default_factory=Counter)
    taken: int = 0
    _stop: threading.Event = field(default_factory=threading.Event)

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.target_id)
            if frame is None:
                continue
            stack: List[str] = []
            while frame is not None:
                code = frame.f_code
                stack.append(f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}")
                frame = frame.f_back
            self.samples[";".join(reversed(stack))] += 1
            self.taken += 1


def run_sampling_profile(
    name: str, interval: float = 0.002
) -> Tuple[List[str], int, float]:
    """Sample one workload's execute step; collapsed-stack output.

    Returns ``(lines, samples_taken, wall_seconds)`` where each line is
    ``frame;frame;...;frame count`` — pipe to ``flamegraph.pl`` or load
    into speedscope.  Statistical by nature: counts vary run to run.
    """
    wl = _find_workload(name)
    sched = wl.build()
    sampler = _Sampler(interval=interval, target_id=threading.get_ident())
    thread = threading.Thread(target=sampler.run, daemon=True)
    t0 = time.perf_counter()
    thread.start()
    try:
        wl.execute(sched)
    finally:
        sampler._stop.set()
        thread.join()
    wall = time.perf_counter() - t0
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(sampler.samples.items())
    ]
    return lines, sampler.taken, wall
