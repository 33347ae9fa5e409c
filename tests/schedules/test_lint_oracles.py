"""The linter's verdicts, tied to two oracles.

* **The engine.**  On mutated generator schedules the linter reports a
  ``deadlock.*`` issue exactly when the discrete-event engine raises
  :class:`DeadlockError` running the same schedule.
* **The previous linter.**  A reference implementation kept here (an
  independent copy of the Figure 2/3 orderings, a wake-all work-list
  replay and a per-entry conservation walk) must produce the same
  issues, in the same order and with the same messages, as
  :func:`lint_schedule` on thousands of mutated schedules.

Also pins that each schedule's per-rank programs are built once and
shared by the linter and the executor.
"""

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine import MachineConfig
from repro.schedules import (
    CommPattern,
    Schedule,
    Step,
    Transfer,
    balanced_exchange,
    execute_schedule,
    lint_schedule,
    linear_exchange,
    pairwise_exchange,
    recursive_exchange,
    schedule_irregular,
)
from repro.schedules import executor
from repro.schedules.schedule import LOWER_RECV_FIRST, LOWER_SEND_FIRST
from repro.schedules.validate import ERROR, WARNING, LintIssue
from repro.sim import DeadlockError

ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)
EXCHANGES = (linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange)
IRREGULAR = ("linear", "pairwise", "balanced", "greedy")


# ----------------------------------------------------------------------
# Reference linter: structure, conservation, deadlock and payload checks
# written without the executor's rank programs.
# ----------------------------------------------------------------------
def ref_structure(schedule: Schedule, issues: List[LintIssue]) -> None:
    n = schedule.nprocs
    for step_idx, step in enumerate(schedule.steps):
        seen_pairs: Set[Tuple[int, int]] = set()
        send_count: Dict[int, int] = {}
        for t in step:
            where = f"step {step_idx + 1}"
            if not (0 <= t.src < n and 0 <= t.dst < n):
                issues.append(LintIssue(
                    "structure.rank-range", ERROR,
                    f"{where}: transfer {t.src}->{t.dst} outside ranks 0..{n - 1}",
                ))
            if t.src == t.dst:
                issues.append(LintIssue(
                    "structure.self-transfer", ERROR,
                    f"{where}: rank {t.src} sends to itself",
                ))
            if t.nbytes < 0 or t.pack_bytes < 0 or t.unpack_bytes < 0:
                issues.append(LintIssue(
                    "structure.negative-bytes", ERROR,
                    f"{where}: transfer {t.src}->{t.dst} has a negative byte count",
                ))
            key = (t.src, t.dst)
            if key in seen_pairs:
                issues.append(LintIssue(
                    "structure.duplicate-pair", ERROR,
                    f"{where}: duplicate transfer {t.src}->{t.dst}",
                ))
            seen_pairs.add(key)
            send_count[t.src] = send_count.get(t.src, 0) + 1
        for rank, c in send_count.items():
            if c > 1:
                issues.append(LintIssue(
                    "structure.multi-send", ERROR,
                    f"step {step_idx + 1}: rank {rank} sends {c} "
                    f"messages (one network interface)",
                ))


def ref_conservation(
    schedule: Schedule, pattern: CommPattern, issues: List[LintIssue]
) -> None:
    if schedule.nprocs != pattern.nprocs:
        issues.append(LintIssue(
            "conservation.size-mismatch", ERROR,
            f"schedule is for {schedule.nprocs} procs, pattern for {pattern.nprocs}",
        ))
        return
    n = pattern.nprocs
    seen: Dict[Tuple[int, int], int] = {}
    for step_idx, t in schedule.all_transfers():
        key = (t.src, t.dst)
        in_range = 0 <= t.src < n and 0 <= t.dst < n
        if t.nbytes == 0 and in_range and int(pattern[key]) == 0:
            continue
        if key in seen:
            issues.append(LintIssue(
                "conservation.duplicate", ERROR,
                f"transfer {t.src}->{t.dst} appears in steps "
                f"{seen[key] + 1} and {step_idx + 1}: bytes would be "
                f"delivered twice",
            ))
            continue
        seen[key] = step_idx
        if not in_range:
            continue
        required = int(pattern[t.src, t.dst])
        if required == 0:
            issues.append(LintIssue(
                "conservation.spurious", ERROR,
                f"step {step_idx + 1}: transfer {t.src}->{t.dst} "
                f"carries {t.nbytes}B but the pattern requires none",
            ))
        elif t.nbytes != required:
            issues.append(LintIssue(
                "conservation.byte-count", ERROR,
                f"step {step_idx + 1}: transfer {t.src}->{t.dst} "
                f"carries {t.nbytes}B, pattern requires {required}B",
            ))
    for src, dst, nbytes in pattern.operations():
        if (src, dst) not in seen:
            issues.append(LintIssue(
                "conservation.missing", ERROR,
                f"pattern bytes lost: no transfer {src}->{dst} ({nbytes}B) in any step",
            ))


@dataclass(frozen=True)
class RefOp:
    kind: str  # "send" | "recv"
    partner: int
    step: int

    def describe(self) -> str:
        arrow = "->" if self.kind == "send" else "<-"
        return f"{self.kind}{arrow}{self.partner} (step {self.step + 1})"


def ref_rank_op_sequence(schedule: Schedule, rank: int) -> List[RefOp]:
    """The rank's blocking ops, derived independently of the executor."""
    ops: List[RefOp] = []
    for step_idx, step in enumerate(schedule.steps):
        sends = [t for t in step if t.src == rank]
        recvs = [t for t in step if t.dst == rank]
        if not sends and not recvs:
            continue
        if len(sends) == 1 and len(recvs) == 1 and sends[0].dst == recvs[0].src:
            partner = sends[0].dst
            if schedule.exchange_order == LOWER_SEND_FIRST:
                first = "send" if rank < partner else "recv"
            else:
                first = "recv" if rank < partner else "send"
            second = "recv" if first == "send" else "send"
            ops.append(RefOp(first, partner, step_idx))
            ops.append(RefOp(second, partner, step_idx))
            continue
        if sends:
            early = sorted(t.src for t in recvs if t.src < rank)
            late = sorted(t.src for t in recvs if t.src > rank)
            ops.extend(RefOp("recv", src, step_idx) for src in early)
            ops.extend(
                RefOp("send", t.dst, step_idx)
                for t in sorted(sends, key=lambda t: t.dst)
            )
            ops.extend(RefOp("recv", src, step_idx) for src in late)
        else:
            for src in sorted(t.src for t in recvs):
                ops.append(RefOp("recv", src, step_idx))
    return ops


def ref_matches(a: RefOp, a_rank: int, b: Optional[RefOp], b_rank: int) -> bool:
    if b is None:
        return False
    return (
        {a.kind, b.kind} == {"send", "recv"}
        and a.partner == b_rank
        and b.partner == a_rank
        and a.step == b.step
    )


def ref_deadlock(schedule: Schedule, issues: List[LintIssue]) -> None:
    seqs = {r: ref_rank_op_sequence(schedule, r) for r in range(schedule.nprocs)}
    pos = {r: 0 for r in seqs}

    def head(r: int) -> Optional[RefOp]:
        s = seqs.get(r)
        if s is None:
            return None
        return s[pos[r]] if pos[r] < len(s) else None

    # Work list that wakes every waiter of a rank when the rank advances.
    waiting_on: Dict[int, Set[int]] = {r: set() for r in seqs}
    queue: List[int] = list(seqs)
    queued: Set[int] = set(queue)
    while queue:
        r = queue.pop()
        queued.discard(r)
        op = head(r)
        if op is None:
            continue
        mate = head(op.partner)
        if ref_matches(op, r, mate, op.partner):
            p = op.partner
            pos[r] += 1
            pos[p] += 1
            for nxt in (r, p):
                wakeups = waiting_on.get(nxt, set())
                wakeups.add(nxt)
                for w in wakeups:
                    if w not in queued:
                        queue.append(w)
                        queued.add(w)
                waiting_on[nxt] = set()
        elif 0 <= op.partner < schedule.nprocs:
            waiting_on.setdefault(op.partner, set()).add(r)

    stuck = {r: h for r in seqs if (h := head(r)) is not None}
    if not stuck:
        return
    cycle: Optional[List[int]] = None
    for start in sorted(stuck):
        order: Dict[int, int] = {}
        chain: List[int] = []
        r = start
        while r in stuck and r not in order:
            order[r] = len(chain)
            chain.append(r)
            r = stuck[r].partner
        if r in order:
            cycle = chain[order[r]:]
            break
    if cycle is not None:
        described = ", ".join(f"rank {r} {stuck[r].describe()}" for r in cycle)
        issues.append(LintIssue(
            "deadlock.cycle", ERROR,
            f"cyclic rendezvous wait-for graph among ranks {cycle}: {described}",
        ))
    else:
        for r in sorted(stuck):
            if stuck[r].partner not in stuck:
                issues.append(LintIssue(
                    "deadlock.unmatched", ERROR,
                    f"rank {r} blocks forever on {stuck[r].describe()}: "
                    f"rank {stuck[r].partner} posts no matching operation",
                ))


def ref_lint_issues(
    schedule: Schedule, pattern: Optional[CommPattern], payload_mode: bool
) -> List[LintIssue]:
    issues: List[LintIssue] = []
    ref_structure(schedule, issues)
    staged = sum(
        1 for _, t in schedule.all_transfers() if t.pack_bytes or t.unpack_bytes
    )
    if pattern is not None:
        if staged:
            issues.append(LintIssue(
                "conservation.staged-skip", WARNING,
                "conservation not checkable for store-and-forward "
                "schedules; rely on block-routing verification",
            ))
        else:
            ref_conservation(schedule, pattern, issues)
    ref_deadlock(schedule, issues)
    if staged and payload_mode:
        issues.append(LintIssue(
            "payload.staged", ERROR,
            f"store-and-forward schedule used in payload mode: "
            f"{staged} transfer(s) carry staged aggregates "
            f"(pack/unpack bytes), not per-pair payloads",
        ))
    elif staged:
        issues.append(LintIssue(
            "payload.staged", WARNING,
            f"store-and-forward schedule ({staged} staged "
            f"transfer(s)); do not execute in payload mode",
        ))
    return issues


# ----------------------------------------------------------------------
# Mutated generator schedules
# ----------------------------------------------------------------------
def base_case(rng: np.random.Generator, nprocs: int) -> Tuple[Schedule, CommPattern]:
    """A generator schedule and the pattern it was built for."""
    if rng.random() < 0.5:
        nbytes = int(rng.choice([0, 64, 256]))
        build = EXCHANGES[rng.integers(len(EXCHANGES))]
        return build(nprocs, nbytes), CommPattern.complete_exchange(nprocs, nbytes)
    density = float(rng.choice([0.2, 0.5, 0.8]))
    pattern = CommPattern.synthetic(
        nprocs, density, 128, seed=int(rng.integers(1 << 30))
    )
    algorithm = IRREGULAR[rng.integers(len(IRREGULAR))]
    return schedule_irregular(pattern, algorithm), pattern


def fresh(t: Transfer, **changes) -> Transfer:
    """A copy of ``t`` (never mutate a generator's own transfers)."""
    out = copy.copy(t)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def move_or_drop(
    rng: np.random.Generator, steps: List[List[Transfer]], edits: int
) -> None:
    """Move transfers to other steps or drop them, in place."""
    for _ in range(edits):
        occupied = [i for i, s in enumerate(steps) if s]
        if not occupied:
            return
        i = occupied[rng.integers(len(occupied))]
        t = steps[i].pop(rng.integers(len(steps[i])))
        if rng.random() < 0.25:
            continue  # dropped
        j = int(rng.integers(len(steps) + 1))
        if j == len(steps):
            steps.append([])
        if all((u.src, u.dst) != (t.src, t.dst) for u in steps[j]):
            steps[j].append(t)
        else:
            steps[i].append(t)


def mutate(
    rng: np.random.Generator, schedule: Schedule, nprocs: int, crafted: bool
) -> Schedule:
    """Moves, drops, copies, resizes and spurious additions; with
    ``crafted``, also frozen-field edits a hand-written JSON could carry
    (out-of-range ranks, self-transfers, negative byte counts)."""
    steps = [list(step) for step in schedule.steps]
    move_or_drop(rng, steps, int(rng.integers(0, 4)))
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(steps)))
        kind = rng.integers(3)
        if kind == 0 and steps[i]:  # copy into another step
            t = steps[i][rng.integers(len(steps[i]))]
            j = int(rng.integers(len(steps)))
            if all((u.src, u.dst) != (t.src, t.dst) for u in steps[j]):
                steps[j].append(fresh(t))
        elif kind == 1 and steps[i]:  # resize
            k = int(rng.integers(len(steps[i])))
            steps[i][k] = fresh(steps[i][k], nbytes=int(rng.choice([0, 1, 100])))
        else:  # spurious or extra transfer
            a, b = (int(x) for x in rng.choice(nprocs, 2, replace=False))
            if all((u.src, u.dst) != (a, b) for u in steps[i]):
                steps[i].append(Transfer(a, b, int(rng.choice([0, 64]))))
    if crafted:
        for _ in range(int(rng.integers(1, 3))):
            occupied = [i for i, s in enumerate(steps) if s]
            if not occupied:
                break
            i = occupied[rng.integers(len(occupied))]
            k = int(rng.integers(len(steps[i])))
            t = fresh(steps[i][k])
            field_, value = [
                ("src", nprocs + 3),
                ("dst", nprocs),
                ("src", -1),
                ("dst", t.src),
                ("nbytes", -5),
            ][rng.integers(5)]
            object.__setattr__(t, field_, value)
            steps[i][k] = t
    for s in steps:
        rng.shuffle(s)
    # Steps are built without Step's duplicate-pair guard on crafted
    # edits, exactly as mutation of a loaded schedule would leave them.
    built = []
    for s in steps:
        step = object.__new__(Step)
        object.__setattr__(step, "transfers", tuple(s))
        built.append(step)
    order = ORDERS[rng.integers(2)]
    out = object.__new__(Schedule)
    for name, value in (
        ("nprocs", nprocs),
        ("steps", tuple(built)),
        ("name", f"{schedule.name}~mut"),
        ("exchange_order", order),
    ):
        object.__setattr__(out, name, value)
    return out


def mutated_cases(count: int, seed: int, crafted_share: float):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nprocs = int(rng.choice([4, 8, 16]))
        schedule, pattern = base_case(rng, nprocs)
        crafted = rng.random() < crafted_share
        yield mutate(rng, schedule, nprocs, crafted), pattern, bool(rng.random() < 0.2)


# ----------------------------------------------------------------------
# Oracle 1: the previous linter
# ----------------------------------------------------------------------
class TestSameFindingsAsReference:
    def test_mutated_schedules(self):
        seen_codes = set()
        checked = 0
        for schedule, pattern, payload_mode in mutated_cases(2400, 7, 0.15):
            use_pattern = pattern if checked % 5 else None
            got = lint_schedule(schedule, use_pattern, payload_mode).issues
            want = ref_lint_issues(schedule, use_pattern, payload_mode)
            assert got == want, schedule.render_table()
            seen_codes.update(i.code for i in got)
            checked += 1
        assert checked >= 2000
        # The mutations reach every family of finding.
        for code in (
            "structure.rank-range",
            "structure.self-transfer",
            "structure.negative-bytes",
            "structure.multi-send",
            "conservation.missing",
            "conservation.duplicate",
            "conservation.spurious",
            "conservation.byte-count",
            "conservation.staged-skip",
            "deadlock.cycle",
            "deadlock.unmatched",
            "payload.staged",
        ):
            assert code in seen_codes, code

    @pytest.mark.parametrize(
        "field_, value", [("src", 9), ("dst", 9), ("src", -2), ("dst", 0)]
    )
    @pytest.mark.parametrize("order", ORDERS)
    def test_crafted_out_of_range_and_self_transfer(self, field_, value, order):
        t = Transfer(0, 2, 64)
        sched = Schedule(
            nprocs=4,
            steps=(Step((t, Transfer(2, 0, 64))), Step((Transfer(1, 3, 8),))),
            name="crafted",
            exchange_order=order,
        )
        object.__setattr__(t, field_, value)
        pattern = CommPattern.complete_exchange(4, 64)
        for p in (None, pattern):
            got = lint_schedule(sched, p).issues
            assert got == ref_lint_issues(sched, p, False)
            assert any(i.code.startswith("deadlock.") for i in got)


# ----------------------------------------------------------------------
# Oracle 2: the engine
# ----------------------------------------------------------------------
@st.composite
def moved_schedules(draw):
    nprocs = draw(st.sampled_from([4, 8, 16]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    schedule, _ = base_case(rng, nprocs)
    steps = [list(step) for step in schedule.steps]
    move_or_drop(rng, steps, draw(st.integers(1, 4)))
    return Schedule(
        nprocs=nprocs,
        steps=tuple(Step(tuple(s)) for s in steps),
        name=f"{schedule.name}~moved",
        exchange_order=draw(st.sampled_from(ORDERS)),
    )


def test_crossed_sends_are_a_deadlock():
    # Rank 0 (two receives, one send) takes the mixed-partner order and
    # sends first; rank 1 (a clean exchange, Figure 2) also sends first.
    # Two heads naming each other at one step are no rendezvous unless
    # one is a receive.
    sched = Schedule(
        nprocs=4,
        steps=(Step((Transfer(0, 1, 64), Transfer(1, 0, 64), Transfer(3, 0, 64))),),
        name="crossed",
    )
    issues = lint_schedule(sched).issues
    assert issues == ref_lint_issues(sched, None, False)
    assert [i.code for i in issues] == ["deadlock.cycle"]
    assert "rank 0 send->1 (step 1), rank 1 send->0 (step 1)" in issues[0].message
    with pytest.raises(DeadlockError):
        execute_schedule(sched, MachineConfig(4))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(moved_schedules())
def test_lint_reports_deadlock_exactly_when_the_engine_does(schedule):
    linted = any(i.code.startswith("deadlock.") for i in lint_schedule(schedule).issues)
    try:
        execute_schedule(schedule, MachineConfig(schedule.nprocs))
        wedged = False
    except DeadlockError:
        wedged = True
    assert linted == wedged


# ----------------------------------------------------------------------
# One program per schedule
# ----------------------------------------------------------------------
class TestOneProgramPerSchedule:
    def test_lint_then_execute_builds_programs_once(self, monkeypatch):
        calls = []
        real = executor.step_actions

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(executor, "step_actions", counted)
        pattern = CommPattern.synthetic(8, 0.5, 64, seed=4)
        sched = schedule_irregular(pattern, "greedy")
        assert lint_schedule(sched, pattern).ok
        built = len(calls)
        assert built > 0
        execute_schedule(sched, MachineConfig(8))
        lint_schedule(sched, pattern)
        assert len(calls) == built

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize(
        "build", [linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange]
    )
    def test_program_is_the_concatenated_step_actions(self, build, order):
        sched = replace(build(8, 64), exchange_order=order)
        programs = executor.rank_programs(sched)
        assert executor.rank_programs(sched) is programs
        for rank in range(sched.nprocs):
            want = []
            for step_idx in range(sched.nsteps):
                sends, recvs = sched.rank_ops(rank, step_idx)
                if sends or recvs:
                    want.extend(
                        (kind == "send", step_idx, t)
                        for kind, t in executor.step_actions(rank, sends, recvs, order)
                    )
            assert programs[rank] == want
