"""The network's arm–check–retire cycle in the compiled drain loop.

With the kernel loaded, the compiled ``EventQueue.run`` arms net
checks, retires completed flows and hands their keys to
``Engine._flow_complete`` itself, traced or not (a tracer's
link-utilization observer hangs off the kernel's ``FlowStore``);
without the kernel (``REPRO_NO_FASTFILL=1``) the pure-Python queue calls
the engine's Python arm and check.  These tests hold the two paths to
the same traces and link-utilization series under every fault kind,
the same stall error, and the same collectability of an abandoned
engine.  The pinned healthy-run digests are checked on both paths in
``test_batched_drain.py``.
"""

import gc
import hashlib
import json
import weakref

import pytest

from repro import obs
from repro.cmmd.api import Comm
from repro.faults import (
    FaultPlan,
    LinkDegrade,
    MessageDelay,
    MessageDrop,
    NodeFailure,
    NodeStraggler,
)
from repro.machine import MachineConfig
from repro.machine._fastfill import kernel
from repro.machine.contention import NetworkStallError
from repro.obs import Tracer
from repro.schedules import balanced_exchange, execute_schedule, pairwise_exchange
from repro.sim import Engine
from repro.sim.process import Delay, Recv, Send
from tests.sim.test_batched_drain import _run_script, digest_result

_KERNEL = kernel()
_needs_kernel = pytest.mark.skipif(_KERNEL is None, reason="compiled kernel not loaded")

NPROCS = 16

#: name -> (faults, reliable sends); every fault kind the engine injects.
FAULT_CASES = {
    "degrade": ((LinkDegrade(2, 0, 0.25),), True),
    "straggler": ((NodeStraggler(5, 4.0, overhead_factor=2.0),), True),
    "delay": ((MessageDelay(0.3, 2e-5),), True),
    "drop": ((MessageDrop(0.2),), True),
    "failure": ((NodeFailure(3, at=1.5e-3),), False),
    "mixed": (
        (
            LinkDegrade(1, 6, 0.5),
            NodeStraggler(2, 3.0),
            MessageDelay(0.2, 1e-5),
            MessageDrop(0.1),
        ),
        True,
    ),
}


def _exchange(comm, reliable):
    """Pairwise exchange with a little local work between steps.

    Reliable sends repair drops through the retry layer; plain ones let
    a send to a dead rank resolve as DROPPED, so a node failure ends
    the run with the rank listed instead of a lost-message error.
    """
    for step in range(1, comm.size):
        partner = comm.rank ^ step
        nbytes = 256 * (1 + (comm.rank + step) % 4)
        yield comm.delay(2e-6 * step)
        if comm.rank < partner:
            if reliable:
                yield from comm.reliable_send(partner, nbytes, tag=step)
            else:
                yield comm.send(partner, nbytes, tag=step)
            yield comm.recv(partner, tag=step)
        else:
            yield comm.recv(partner, tag=step)
            if reliable:
                yield from comm.reliable_send(partner, nbytes, tag=step)
            else:
                yield comm.send(partner, nbytes, tag=step)


def run_fault_case(name):
    """``(engine, SimResult)`` of one traced fault case at N=16."""
    faults, reliable = FAULT_CASES[name]
    config = MachineConfig(NPROCS)
    engine = Engine(
        config, trace=True, faults=FaultPlan(faults, seed=7), tracer=Tracer()
    )
    comms = [Comm(rank, config) for rank in range(NPROCS)]
    sim = engine.run([_exchange(c, reliable) for c in comms])
    return engine, sim


def fault_digest(name):
    engine, sim = run_fault_case(name)
    series = hashlib.sha256()
    for t, rates in engine.tracer.link_util.samples:
        series.update(repr(t).encode() + rates.tobytes())
    return {
        "digest": digest_result(type("R", (), {"sim": sim})),
        "failed": sim.failed_ranks,
        "retries": len(sim.trace.retries),
        "link_series": series.hexdigest(),
    }


def test_fault_cases_inject_what_they_name():
    drops = fault_digest("drop")
    assert drops["retries"] > 0 and drops["failed"] == []
    assert fault_digest("failure")["failed"] == [3]


@_needs_kernel
@pytest.mark.parametrize("name", sorted(FAULT_CASES))
def test_fault_case_runs_the_native_cycle(name):
    engine, sim = run_fault_case(name)
    assert engine._native_net is engine.net.store
    assert type(engine.net.store) is _KERNEL.FlowStore
    assert engine.net.store.allocations > 0
    assert sim.message_count > 0


@_needs_kernel
def test_fault_cases_match_the_python_arm():
    """Compiled cycle vs ``REPRO_NO_FASTFILL=1`` (Python queue and arm,
    NumPy network), compared in a fresh interpreter."""
    script = (
        "import json\n"
        "from tests.sim.test_native_cycle import FAULT_CASES, fault_digest\n"
        "print(json.dumps({n: fault_digest(n) for n in sorted(FAULT_CASES)}))"
    )
    fallback = json.loads(_run_script(script, {"REPRO_NO_FASTFILL": "1"}))
    assert fallback == {n: fault_digest(n) for n in sorted(FAULT_CASES)}


def traced_net_counters():
    """``net.allocations`` and ``net.fill_rounds`` of traced N=16 PEX
    and BEX runs at 512 B."""
    out = {}
    for build in (pairwise_exchange, balanced_exchange):
        with obs.tracing() as tracer:
            execute_schedule(build(NPROCS, 512), MachineConfig(NPROCS))
        counters = tracer.metrics.counters
        out[build.__name__] = [
            counters[name].value for name in ("net.allocations", "net.fill_rounds")
        ]
    return out


@_needs_kernel
def test_traced_counters_match_the_numpy_network():
    """The kernel store's reallocation and fill-round counts, as the
    engine reports them, equal the NumPy reference's."""
    script = (
        "import json\n"
        "from tests.sim.test_native_cycle import traced_net_counters\n"
        "print(json.dumps(traced_net_counters()))"
    )
    fallback = json.loads(_run_script(script, {"REPRO_NO_FASTFILL": "1"}))
    counts = traced_net_counters()
    assert fallback == counts
    # Rounds per reallocation above 1: some flows freeze in later rounds.
    assert all(rounds > allocations > 0 for allocations, rounds in counts.values())


def _one_message(rank):
    if rank == 0:
        yield Send(dst=1, nbytes=64)
    elif rank == 1:
        yield Recv(src=0)


@_needs_kernel
def test_traced_run_takes_the_compiled_cycle():
    """The store hands every reallocation to the tracer's observer, and
    the arm after the last retirement records the idle network."""
    engine = Engine(MachineConfig(4), tracer=Tracer())
    engine.run([_one_message(r) for r in range(4)])
    assert engine._native_net is engine.net.store
    assert engine.net.store.allocations == 1
    (t0, busy), (t1, idle) = engine.tracer.link_util.samples
    assert t0 < t1 and busy.any() and not idle.any()


def test_observer_error_propagates_out_of_the_run():
    def observer(now, rates):
        raise KeyError("observer failed")

    engine = Engine(MachineConfig(4))
    engine.net.observer = observer
    with pytest.raises(KeyError, match="observer failed"):
        engine.run([_one_message(r) for r in range(4)])


# ----------------------------------------------------------------------
# A net check keeps its (time, seq) place in the heap
# ----------------------------------------------------------------------
class _LoggingEngine(Engine):
    """Logs every resume and flow completion with its instant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _resume(self, proc, value):
        self.log.append(("resume", proc.rank, self.now))
        super()._resume(proc, value)

    def _flow_complete(self, key):
        self.log.append(("complete", key, self.now))
        super()._flow_complete(key)


def _tie_run(wake):
    """Rank 0 sends to rank 1 while rank 2 sleeps until ``wake``."""
    engine = _LoggingEngine(MachineConfig(4))

    def prog(rank):
        if rank == 0:
            yield Send(dst=1, nbytes=512)
        elif rank == 1:
            yield Recv(src=0)
        elif rank == 2:
            yield Delay(wake)

    engine.run([prog(r) for r in range(4)])
    return engine.log


def test_net_check_fires_fifo_among_simultaneous_events():
    """Rank 2's wake-up is queued at t=0, the net check only when the
    flow starts: at the same instant the wake-up fires first."""
    (done_at,) = [t for kind, _, t in _tie_run(1.0) if kind == "complete"]
    tied = [entry for entry in _tie_run(done_at) if entry[2] == done_at]
    assert tied[:2] == [("resume", 2, done_at), ("complete", 0, done_at)]


# ----------------------------------------------------------------------
# A stalled flow names itself on both paths
# ----------------------------------------------------------------------
def stall_message():
    """Run a message over a link forced to zero capacity.

    The degrade gives the network its per-link scale column; zeroing
    the degraded entries (white-box) makes the fair rate of every flow
    over rank 0's injection link exactly zero.
    """
    engine = Engine(
        MachineConfig(4), faults=FaultPlan((LinkDegrade(1, 0, 0.5),))
    )
    scales = engine.net._link_scales
    scales[scales < 1.0] = 0.0

    def prog(rank):
        if rank in (0, 2):
            yield Send(dst=rank + 1, nbytes=512)
        else:
            yield Recv(src=rank - 1)

    with pytest.raises(NetworkStallError) as excinfo:
        engine.run([prog(r) for r in range(4)])
    return str(excinfo.value)


def test_zero_rate_link_raises_the_stall_error():
    text = stall_message()
    assert text.startswith("1 active flow(s) stalled with zero rate: (0->1, key=")


@_needs_kernel
def test_stall_error_text_matches_the_python_arm():
    script = (
        "import pytest\n"
        "from tests.sim.test_native_cycle import stall_message\n"
        "print(stall_message())"
    )
    assert _run_script(script, {"REPRO_NO_FASTFILL": "1"}) == stall_message()


# ----------------------------------------------------------------------
# An abandoned engine with native net checks queued is collectable
# ----------------------------------------------------------------------
def _abort_with_flow_in_flight(tracer=None):
    """An engine whose run dies on a bad Send dst while a flow drains."""
    engine = Engine(MachineConfig(4), tracer=tracer)

    def prog(rank):
        if rank == 0:
            yield Send(dst=1, nbytes=1 << 20)
        elif rank == 1:
            yield Recv(src=0)
        elif rank == 2:
            yield Delay(1e-4)
            yield Send(dst=99, nbytes=8)

    with pytest.raises(ValueError, match="bad send dst 99"):
        engine.run([prog(r) for r in range(4)])
    assert engine.net.active_count == 1
    return engine


@_needs_kernel
def test_aborted_run_leaves_a_native_net_check_queued():
    engine = _abort_with_flow_in_flight()
    store = engine.net.store
    entries = []
    while len(engine.queue):
        entries.append(engine.queue.pop())
    # A net check pops as (time, store, (gen,)).
    assert (store, (store.gen,)) in [(fn, args) for _, fn, args in entries]


def test_aborted_engine_with_a_flow_in_flight_is_collected():
    # Traced, the network's store also holds the network's observer.
    refs = []
    for tracer in (None, Tracer()):
        engine = _abort_with_flow_in_flight(tracer)
        refs += [weakref.ref(engine), weakref.ref(engine.net)]
    del engine
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4
