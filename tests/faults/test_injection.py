"""Engine-level fault injection: timing effects, retries, replay.

These tests pin the *semantics* of each fault kind as observed through
the simulator — a compute straggler hurts store-and-forward REX but not
the single-hop exchanges, degraded links stretch wire time, dropped
messages are repaired by the retry layer with exact byte accounting —
plus the two bookkeeping guarantees the sweeps rely on: byte-identical
deterministic replay and the ``max_records`` trace cap.
"""

import numpy as np
import pytest

from repro.cmmd.api import Comm, MessageLostError, RetryPolicy
from repro.cmmd.program import run_spmd
from repro.faults import (
    HEALTHY,
    FaultPlan,
    LinkDegrade,
    MessageDelay,
    MessageDrop,
    NodeStraggler,
)
from repro.machine import CM5Params, MachineConfig
from repro.schedules import (
    CommPattern,
    execute_schedule,
    greedy_schedule,
    pairwise_exchange,
    recursive_exchange,
    schedule_program,
)

CFG8 = MachineConfig(8, CM5Params(routing_jitter=0.0))
NBYTES = 256


def run(sched, faults=None, **kw):
    return execute_schedule(sched, CFG8, faults=faults, **kw)


# ----------------------------------------------------------------------
# Timing semantics per fault kind
# ----------------------------------------------------------------------
def test_straggler_hits_store_and_forward_only():
    plan = FaultPlan((NodeStraggler(5, 8.0),))
    pex, rex = pairwise_exchange(8, NBYTES), recursive_exchange(8, NBYTES)
    assert run(pex, plan).time == pytest.approx(run(pex).time)
    assert run(rex, plan).time > 1.5 * run(rex).time


def test_straggler_overhead_factor_hits_every_schedule():
    plan = FaultPlan((NodeStraggler(5, 1.0, overhead_factor=4.0),))
    pex = pairwise_exchange(8, NBYTES)
    assert run(pex, plan).time > run(pex).time


def test_link_degrade_stretches_wire_time():
    pex = pairwise_exchange(8, NBYTES)
    degraded = run(pex, FaultPlan((LinkDegrade(1, 0, 0.1),))).time
    assert degraded > run(pex).time


def test_message_delay_slows_run():
    pex = pairwise_exchange(8, NBYTES)
    slow = run(pex, FaultPlan((MessageDelay(1.0, 500e-6),))).time
    assert slow > run(pex).time + 400e-6


def test_fault_machinery_is_free_when_healthy():
    pex = pairwise_exchange(8, NBYTES)
    base = run(pex).time
    assert run(pex, HEALTHY).time == base
    assert run(pex, FaultPlan((MessageDrop(0.0),))).time == base


# ----------------------------------------------------------------------
# Drops and the retry layer
# ----------------------------------------------------------------------
def test_drops_repaired_with_exact_accounting():
    pex = pairwise_exchange(8, NBYTES)
    res = run(pex, FaultPlan((MessageDrop(0.2),), seed=7), trace=True)
    summ = res.sim.trace.summary()
    assert summ.retry_count > 0
    assert summ.lost_bytes == 0
    assert summ.message_count == 8 * 7
    assert summ.delivered_bytes == 8 * 7 * NBYTES
    assert res.time > run(pex).time  # timeouts + backoff cost real time
    for rec in res.sim.trace.retries:
        assert rec.reason == "drop"
        assert rec.failed_at > rec.posted_at


def test_reliable_send_raises_past_retry_budget():
    # Every attempt up to max_consecutive=20 drops; the default policy
    # gives up after 8 retries, so the sender must surface the loss.
    plan = FaultPlan((MessageDrop(1.0, max_consecutive=20),))

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.reliable_send(1, 64)
        elif comm.rank == 1:
            yield comm.recv(0)

    with pytest.raises(MessageLostError):
        run_spmd(MachineConfig(4), program, faults=plan)


def test_schedule_program_uses_the_reliable_send_retry_loop():
    # The executor yields its sends itself; after a drop it must run the
    # same retry loop as reliable_send: same budget, same error text.
    plan = FaultPlan((MessageDrop(1.0, max_consecutive=20),))
    with pytest.raises(
        MessageLostError,
        match=r"^rank \d: send to \d \(64B, tag 0\) lost after 9 attempts$",
    ):
        execute_schedule(pairwise_exchange(4, 64), MachineConfig(4), faults=plan)


def test_retry_policy_budget_is_respected():
    # max_consecutive=2 < max_retries, so a tight policy still succeeds.
    plan = FaultPlan((MessageDrop(1.0, max_consecutive=2),))

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.reliable_send(
                1, 64, policy=RetryPolicy(max_retries=2)
            )
        elif comm.rank == 1:
            yield comm.recv(0)

    sim = run_spmd(MachineConfig(4), program, faults=plan, trace=True)
    assert sim.trace.summary().retry_count == 2
    assert sim.trace.summary().lost_bytes == 0


def test_gather_values_correct_under_drops():
    """An irregular gather moves real values through a GS schedule's
    payload-carrying sends; the reliable sends repair every drop, so
    each rank receives every requested off-rank value intact."""
    rng = np.random.default_rng(3)
    requests = [rng.integers(0, 64, size=12) for _ in range(8)]
    data = rng.normal(size=64)
    owner = np.arange(64) // 8  # a block distribution
    needs = [
        {int(src): g[owner[g] == src] for src in np.unique(owner[g]) if src != r}
        for r, g in enumerate(np.unique(req) for req in requests)
    ]
    matrix = np.zeros((8, 8), dtype=np.int64)
    for r, wanted in enumerate(needs):
        for src, g in wanted.items():
            matrix[src, r] = 8 * g.size
    sched = greedy_schedule(CommPattern(matrix))

    def program(comm: Comm):
        outbox = {
            dst: data[wanted[comm.rank]]
            for dst, wanted in enumerate(needs)
            if comm.rank in wanted
        }
        inbox = {}
        yield from schedule_program(comm, sched, outbox=outbox, inbox=inbox)
        return inbox

    plan = FaultPlan((MessageDrop(0.3),), seed=11)
    sim = run_spmd(CFG8, program, faults=plan, trace=True)
    assert sim.trace.summary().retry_count > 0
    for r, wanted in enumerate(needs):
        assert sorted(sim.results[r]) == sorted(wanted)
        for src, g in wanted.items():
            assert sim.results[r][src].tolist() == data[g].tolist()


# ----------------------------------------------------------------------
# Deterministic replay + trace cap
# ----------------------------------------------------------------------
MESSY_PLAN = FaultPlan(
    (
        NodeStraggler(2, 3.0),
        LinkDegrade(2, 0, 0.5),
        MessageDelay(0.3, 200e-6),
        MessageDrop(0.15),
    ),
    seed=13,
)


def test_replay_is_byte_identical():
    pex = pairwise_exchange(8, NBYTES)
    a = run(pex, MESSY_PLAN, trace=True).sim.trace.event_stream()
    b = run(pex, MESSY_PLAN, trace=True).sim.trace.event_stream()
    assert a == b
    assert '"kind": "retry"' in a  # the plan actually exercised drops


def test_replay_differs_across_fault_seeds():
    pex = pairwise_exchange(8, NBYTES)
    other = FaultPlan(MESSY_PLAN.faults, seed=14)
    a = run(pex, MESSY_PLAN, trace=True).sim.trace.event_stream()
    b = run(pex, other, trace=True).sim.trace.event_stream()
    assert a != b


def test_max_records_caps_lists_not_counters():
    pex = pairwise_exchange(8, NBYTES)
    full = run(pex, MESSY_PLAN, trace=True).sim.trace
    capped = run(pex, MESSY_PLAN, trace=True, max_trace_records=5).sim.trace
    assert len(capped.messages) == 5
    assert len(full.messages) == full.message_count > 5
    # Aggregates stay exact despite the cap; only the truncation flag
    # (which reports the clipped lists) differs between the two runs.
    import dataclasses

    assert dataclasses.replace(capped.summary(), truncated=False) == full.summary()
    assert capped.truncated and not full.truncated
    assert capped.total_bytes() == full.total_bytes()


def test_exhausted_retry_budget_names_the_message():
    # Satellite of the resilience work: when the budget runs out, the
    # error names src, dst, size, tag, and the attempt count — and the
    # trace holds one retry record per failed attempt.
    plan = FaultPlan((MessageDrop(1.0, max_consecutive=20),))
    policy = RetryPolicy(max_retries=3)

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.reliable_send(1, 64, tag=7, policy=policy)
        elif comm.rank == 1:
            yield comm.recv(0, tag=7)

    with pytest.raises(
        MessageLostError,
        match=r"rank 0: send to 1 \(64B, tag 7\) lost after 4 attempts",
    ):
        run_spmd(MachineConfig(4), program, faults=plan)


def test_every_failed_attempt_leaves_a_retry_record():
    from repro.sim.engine import Engine

    plan = FaultPlan((MessageDrop(1.0, max_consecutive=20),))
    policy = RetryPolicy(max_retries=3)
    cfg = MachineConfig(4)

    def program(comm: Comm):
        if comm.rank == 0:
            yield from comm.reliable_send(1, 64, tag=7, policy=policy)
        elif comm.rank == 1:
            yield comm.recv(0, tag=7)

    engine = Engine(cfg, trace=True, faults=plan)
    programs = [program(Comm(rank=r, config=cfg)) for r in range(4)]
    with pytest.raises(MessageLostError, match="lost after 4 attempts"):
        engine.run(programs)
    retries = [r for r in engine.trace.retries if (r.src, r.dst) == (0, 1)]
    # Attempts 0..3 all dropped: four records, sequentially numbered.
    assert [r.attempt for r in retries] == [0, 1, 2, 3]
    assert all(r.nbytes == 64 and r.tag == 7 for r in retries)
    assert all(r.reason == "drop" for r in retries)
    assert all(r.failed_at > r.posted_at for r in retries)
    assert engine.trace.lost_bytes >= 64
