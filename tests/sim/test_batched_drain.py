"""Byte-identity regression tests for the engine's event-core drain.

The engine drains each instant through ``EventQueue.run`` over
``(time, seq, fn, args)`` entries, compiled or pure Python.  These
tests pin its observable behaviour to SHA-256 trace digests recorded
with the earlier engine (closure events, equal-time batched drain,
list-scan rendezvous), so any change to event order or to a single
timestamp bit fails here.  They also check that the C kernels and the
NumPy/Python fallbacks agree, and that large-N runs are deterministic
across processes.
"""

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.cmmd import run_spmd
from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    balanced_exchange,
    execute_schedule,
    linear_exchange,
    pairwise_exchange,
    recursive_exchange,
    schedule_irregular,
)
from repro.service.pool import WorkerPool
from repro.sim.events import _TIME_ATOL

#: ``digest_result(..., trace=True)`` of each case, recorded before the
#: event core was rewritten.  Never regenerate these to make a test pass:
#: a mismatch means simulated behaviour changed.
PINNED_DIGESTS = {
    "pex_n32_b512": "2f1281c3bcd508fd78ff31bbbe99a0b6735daa223a35826a719618b2547cebe2",
    "pex_n64_b0": "a7c2ad720f4fa422e002a143a0288bba5be8b300666558165b03f61df9742c07",
    "pex_n64_b1920": "cad69f9ebb05e789b4d9bd47e186436c731caf38cecd480cf4552f37e6a4a292",
    "bex_n64_b0": "e173b758e6efaeaa73988bd115fe9dee7255f3ea260791f4434eccf6d1e5f2e0",
    "bex_n64_b1920": "6f34a0fae49f16f7f24178f10056c8fff9cd61ea2b57778a8f921b1e43cc4ab2",
    "lex_n64_b0": "e9e7c0c1cf89972f989a223a994ac67cd50eec9b52e8c3c337b2ae41f64e5b63",
    "lex_n64_b1920": "bc1244e05079b87705879c988ac8e3b4c2f29e981e89c294613307a9fcde6b24",
    "gs_n32_d25_b1024": "1158cdc785b615baebbadf5761c3f8fdc1a05a1be9b85faf1cc4755ac4bb3989",
    "atol_delay_n4": "0d3e02b2807e6088f72032f9c82a28849fe550c1d43626e4ba0230c3278b65a8",
}

EXCHANGE_BUILDERS = {
    "pex": pairwise_exchange,
    "bex": balanced_exchange,
    "lex": linear_exchange,
    "rex": recursive_exchange,
}


def digest_result(res):
    """SHA-256 of one traced execution's observable behaviour.

    Covers the full event stream plus the exact (``repr``-level, every
    bit of every float) makespan, message count, total wait time and
    finish times.  Requires a traced run.
    """
    sim = res.sim
    h = hashlib.sha256()
    h.update(sim.trace.event_stream().encode())
    h.update(repr(sim.makespan).encode())
    h.update(str(sim.message_count).encode())
    h.update(repr(sum(sim.wait_times)).encode())
    h.update(",".join(repr(f) for f in sim.finish_times).encode())
    return h.hexdigest()


def run_digest(spec):
    """Worker: execute one ``(algorithm, nprocs, nbytes)`` exchange.

    Module-level so it pickles into a worker process; returns the
    digest plus the message count.
    """
    algo, nprocs, nbytes = spec
    sched = EXCHANGE_BUILDERS[algo](nprocs, nbytes)
    res = execute_schedule(sched, MachineConfig(nprocs), trace=True)
    return {"digest": digest_result(res), "messages": res.sim.message_count}


def _exchange_digest(case):
    algo, n, b = case.split("_")
    return run_digest((algo, int(n[1:]), int(b[1:])))["digest"]


def _greedy_digest():
    """A Table 11-style GS schedule (25% density, 1 KB) at N=32."""
    pat = CommPattern.synthetic(32, 0.25, 1024, seed=11)
    res = execute_schedule(
        schedule_irregular(pat, "greedy"), MachineConfig(32), trace=True
    )
    return digest_result(res)


def _atol_delay_digest():
    """Rank ``r`` wakes at ``r * _TIME_ATOL``, then sleeps ``_TIME_ATOL``."""

    def prog(comm):
        from repro.sim.process import Delay

        yield Delay(comm.rank * _TIME_ATOL)
        yield Delay(_TIME_ATOL)

    cfg = MachineConfig(4, CM5Params(routing_jitter=0.0))
    sim = run_spmd(cfg, prog, trace=True)
    return digest_result(SimpleNamespace(sim=sim))


def _pinned_digest(case):
    if case == "gs_n32_d25_b1024":
        return _greedy_digest()
    if case == "atol_delay_n4":
        return _atol_delay_digest()
    return _exchange_digest(case)


@pytest.mark.parametrize(
    "case",
    [
        "pex_n32_b512",
        "pex_n64_b0",
        "pex_n64_b1920",
        "bex_n64_b0",
        "bex_n64_b1920",
        "lex_n64_b0",
        "lex_n64_b1920",
    ],
)
def test_pinned_trace_digest(case):
    """PEX/BEX/LEX exchanges reproduce the recorded traces bit for bit."""
    assert _exchange_digest(case) == PINNED_DIGESTS[case]


def test_pinned_greedy_table11_digest():
    """A Table 11-style GS schedule (25% density, 1 KB) at N=32."""
    assert _greedy_digest() == PINNED_DIGESTS["gs_n32_d25_b1024"]


def test_atol_separated_events_drain_identically():
    """Events exactly ``_TIME_ATOL`` apart drain into one instant.

    Rank ``r`` wakes at ``r * _TIME_ATOL``: consecutive wake-ups sit
    exactly on the inclusive drain threshold, the regime where an
    off-by-one-ulp drain boundary would reorder or re-timestamp events.
    The digest covers ``repr``-level timestamps.
    """
    assert _atol_delay_digest() == PINNED_DIGESTS["atol_delay_n4"]


@pytest.mark.parametrize("n", [512, 1024])
def test_large_n_determinism(n):
    """Two replicas at N=512/1024 produce the identical trace digest.

    Runs the replicas through a two-process
    :class:`repro.service.pool.WorkerPool`, covering the
    process-parallel path at the same time: parallel and inline
    execution must agree.
    """
    with WorkerPool(2) as pool:
        out = pool.map_ordered(run_digest, [("rex", n, 64)] * 2)
    assert out[0]["digest"] == out[1]["digest"]
    inline = run_digest(("rex", n, 64))
    assert inline["digest"] == out[0]["digest"]
    # log2(n) store-and-forward steps, one message per rank per step
    assert inline["messages"] == n * (n.bit_length() - 1)


_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


_ROOT = os.path.dirname(os.path.dirname(_SRC))


def _run_script(script, extra_env):
    """stdout of ``script`` in a fresh interpreter over this checkout."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_FASTFILL"}
    env.update(extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(_SRC), _ROOT) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


def _subprocess_digest(n, extra_env):
    script = (
        "from tests.sim.test_batched_drain import run_digest; "
        f"print(run_digest(('rex', {n}, 64))['digest'])"
    )
    return _run_script(script, extra_env)


@pytest.mark.parametrize("n", [512, 1024])
def test_kernel_vs_numpy_fallback_large_n(n):
    """C kernel and NumPy fallback traces agree at N=512/1024.

    ``REPRO_NO_FASTFILL`` is read once at kernel load, so the fallback
    run needs a fresh interpreter.
    """
    with_kernel = _subprocess_digest(n, {})
    fallback = _subprocess_digest(n, {"REPRO_NO_FASTFILL": "1"})
    assert with_kernel == fallback


def test_pinned_digests_on_the_fallback_queue():
    """Every pinned case also reproduces on the Python queue and NumPy.

    The in-process tests above run on the compiled event queue whenever
    the kernel is loaded; this replays them with ``REPRO_NO_FASTFILL=1``
    in a fresh interpreter, where the engine drains through the
    pure-Python :class:`repro.sim.EventQueue`.
    """
    script = (
        "import json\n"
        "from repro.machine import MachineConfig\n"
        "from repro.sim import Engine\n"
        "from tests.sim.test_batched_drain import PINNED_DIGESTS, _pinned_digest\n"
        "queue = type(Engine(MachineConfig(2)).queue)\n"
        "digests = {case: _pinned_digest(case) for case in PINNED_DIGESTS}\n"
        "print(json.dumps([queue.__module__, digests]))"
    )
    module, digests = json.loads(_run_script(script, {"REPRO_NO_FASTFILL": "1"}))
    assert module == "repro.sim.events"
    assert digests == PINNED_DIGESTS
