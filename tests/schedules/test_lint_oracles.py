"""The linter's verdicts, tied to two oracles.

* **The engine.**  On mutated generator schedules the linter reports a
  ``deadlock.*`` issue exactly when the discrete-event engine raises
  :class:`DeadlockError` running the same schedule.
* **The previous linter.**  A reference implementation kept here (an
  independent copy of the Figure 2/3 orderings, a wake-all work-list
  replay and a per-entry conservation walk) must produce the same
  issues, in the same order and with the same messages, as
  :func:`lint_schedule` on thousands of mutated schedules.

Every mutation stays inside the schedule constructors' gate (moves,
drops, copies, resizes and added transfers between distinct in-range
ranks, no pair twice in a step), so the reference sees only schedules
that can exist; the gate's own rejections are tested in
``test_schedule.py``.

Also pins that each schedule's program is compiled once and shared by
the linter and the executor, holds the compile to a per-step
statement of the orderings (``step_actions``) on random step sets, and checks that a
program certified ``live`` (which the linter does not replay) never
stalls in the replay.
"""

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, NodeStraggler
from repro.machine import MachineConfig
from repro.schedules import (
    CommPattern,
    ProcessorMesh,
    Schedule,
    Step,
    Transfer,
    balanced_exchange,
    coloring_schedule,
    execute_schedule,
    linear_broadcast,
    lint_schedule,
    linear_exchange,
    local_schedule,
    pairwise_exchange,
    recursive_broadcast,
    recursive_exchange,
    repair_schedule,
    schedule_irregular,
    shift_schedule,
)
from repro.schedules import executor, validate
from repro.schedules.schedule import LOWER_RECV_FIRST, LOWER_SEND_FIRST
from repro.schedules.validate import ERROR, WARNING, LintIssue
from repro.sim import DeadlockError

from .checks import transfers

ORDERS = (LOWER_RECV_FIRST, LOWER_SEND_FIRST)
EXCHANGES = (linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange)
IRREGULAR = ("linear", "pairwise", "balanced", "greedy")


# ----------------------------------------------------------------------
# Reference linter: structure, conservation, deadlock and payload checks
# written without the executor's rank programs.
# ----------------------------------------------------------------------
def ref_structure(schedule: Schedule, issues: List[LintIssue]) -> None:
    for step_idx, step in enumerate(schedule.steps):
        send_count: Dict[int, int] = {}
        for t in step:
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
    seen: Dict[Tuple[int, int], int] = {}
    for step_idx, t in transfers(schedule):
        key = (t.src, t.dst)
        if t.nbytes == 0 and int(pattern[key]) == 0:
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
        else:
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
    else:  # the linter claims this never happens once the gate passed
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
        1 for _, t in transfers(schedule) if t.pack_bytes or t.unpack_bytes
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


def mutate(rng: np.random.Generator, schedule: Schedule, nprocs: int) -> Schedule:
    """Moves, drops, copies, resizes and spurious additions."""
    steps = [list(step) for step in schedule.steps]
    move_or_drop(rng, steps, int(rng.integers(0, 4)))
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(steps)))
        kind = rng.integers(3)
        if kind == 0 and steps[i]:  # copy into another step
            t = steps[i][rng.integers(len(steps[i]))]
            j = int(rng.integers(len(steps)))
            if all((u.src, u.dst) != (t.src, t.dst) for u in steps[j]):
                steps[j].append(t)
        elif kind == 1 and steps[i]:  # resize
            k = int(rng.integers(len(steps[i])))
            steps[i][k] = replace(steps[i][k], nbytes=int(rng.choice([0, 1, 100])))
        else:  # spurious or extra transfer
            a, b = (int(x) for x in rng.choice(nprocs, 2, replace=False))
            if all((u.src, u.dst) != (a, b) for u in steps[i]):
                steps[i].append(Transfer(a, b, int(rng.choice([0, 64]))))
    for s in steps:
        rng.shuffle(s)
    return Schedule(
        nprocs=nprocs,
        steps=tuple(Step(tuple(s)) for s in steps),
        name=f"{schedule.name}~mut",
        exchange_order=ORDERS[rng.integers(2)],
    )


def mutated_cases(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nprocs = int(rng.choice([4, 8, 16]))
        schedule, pattern = base_case(rng, nprocs)
        yield mutate(rng, schedule, nprocs), pattern, bool(rng.random() < 0.2)


# ----------------------------------------------------------------------
# Oracle 1: the previous linter
# ----------------------------------------------------------------------
class TestSameFindingsAsReference:
    def test_mutated_schedules(self):
        seen_codes = set()
        checked = 0
        for schedule, pattern, payload_mode in mutated_cases(2400, 7):
            use_pattern = pattern if checked % 5 else None
            got = lint_schedule(schedule, use_pattern, payload_mode).issues
            want = ref_lint_issues(schedule, use_pattern, payload_mode)
            assert got == want, schedule.render_table()
            seen_codes.update(i.code for i in got)
            checked += 1
        assert checked >= 2000
        # The mutations reach every family of finding.
        for code in (
            "structure.multi-send",
            "conservation.missing",
            "conservation.duplicate",
            "conservation.spurious",
            "conservation.byte-count",
            "conservation.staged-skip",
            "deadlock.cycle",
            "payload.staged",
        ):
            assert code in seen_codes, code


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
# The live certificate
# ----------------------------------------------------------------------
class TestLiveCertificate:
    @pytest.mark.parametrize("seed", [7, 8])
    def test_a_live_program_never_stalls(self, seed):
        certified = 0
        for schedule, _, _ in mutated_cases(1200, seed):
            program = executor.compiled_program(schedule)
            if not program.live:
                continue
            issues: List[LintIssue] = []
            validate._replay(program, issues)
            assert issues == [], schedule.render_table()
            ref_deadlock(schedule, issues)
            assert issues == [], schedule.render_table()
            certified += 1
        assert certified > 100

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("build", EXCHANGES)
    @pytest.mark.parametrize("order", ORDERS)
    def test_generator_schedules_are_certified(self, build, order, n):
        built = build(n, 64)
        assert executor.compiled_program(Schedule(n, built.steps, "x", order)).live

    @pytest.mark.parametrize("n", [8, 16])
    def test_every_other_builder_is_certified(self, n):
        # The linter replays only an uncertified program, so every
        # builder's own schedule must carry the certificate.
        pattern = CommPattern.synthetic(n, 0.5, 128, seed=n)
        mesh = ProcessorMesh(2, n // 2)
        straggler = FaultPlan((NodeStraggler(1, 4.0),))
        built = [
            linear_broadcast(n, 0, 64),
            recursive_broadcast(n, 3, 64),
            shift_schedule(n, 3, 64),
            coloring_schedule(pattern),
            mesh.row_exchange(64),
            mesh.col_exchange(64),
            mesh.row_broadcast(1, 2, 64),
            mesh.col_broadcast(3, 0, 64),
            *(schedule_irregular(pattern, name) for name in IRREGULAR),
            local_schedule(pattern),
            repair_schedule(
                schedule_irregular(pattern, "balanced"), straggler, MachineConfig(n)
            ),
        ]
        if n == 16:
            built.append(ProcessorMesh(4, 4).transpose_permutation(64))
        for sched in built:
            assert executor.compiled_program(sched).live, sched.name

    def test_a_one_sided_flip_is_replayed(self):
        # Rank 0's step is an exchange with rank 1, which Figure 2 flips
        # (0 receives first); rank 1 also receives from rank 2, so it
        # takes the mixed order and receives from rank 0 first.
        steps = (Step((Transfer(0, 1, 64), Transfer(1, 0, 64), Transfer(2, 1, 64))),)
        sched = Schedule(3, steps, "one-sided", LOWER_RECV_FIRST)
        program = executor.compiled_program(sched)
        assert not program.live
        issues = lint_schedule(sched).issues
        assert [i.code for i in issues] == ["deadlock.cycle"]
        assert issues == ref_lint_issues(sched, None, False)
        # Without the flip the same steps are certified, and run.
        assert executor.compiled_program(Schedule(3, steps, "x", LOWER_SEND_FIRST)).live


# ----------------------------------------------------------------------
# One program per schedule
# ----------------------------------------------------------------------
@st.composite
def step_sets(draw):
    """Random steps for the compile oracle: any set of directed pairs per
    step, so exchanges, lone sends and receives, linear multi-receive
    steps and greedy mixed steps all occur, with pack/unpack bytes."""
    n = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    size = st.sampled_from((0, 0, 8, 64))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(("any", "linear", "exchanges")))
        if shape == "linear":  # one receiver drains some senders
            dst = draw(st.integers(0, n - 1))
            senders = draw(st.sets(st.integers(0, n - 1).filter(lambda r: r != dst)))
            chosen = [(src, dst) for src in senders]
        elif shape == "exchanges":  # disjoint pairs, both directions
            ranks = draw(st.permutations(range(n)))
            cut = draw(st.integers(0, n // 2))
            chosen = [
                edge
                for a, b in zip(ranks[: 2 * cut : 2], ranks[1 : 2 * cut : 2])
                for edge in ((a, b), (b, a))
            ]
        else:
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n))
        steps.append(
            [Transfer(a, b, draw(size), draw(size), draw(size)) for a, b in chosen]
        )
    order = draw(st.sampled_from(ORDERS))
    return Schedule(n, tuple(Step(tuple(s)) for s in steps), "drawn", order)


def step_actions(
    rank: int, sends: List[Transfer], recvs: List[Transfer], exchange_order: str
) -> List[tuple]:
    """The executor's ordering rules for one rank's step, stated per step:
    ``("send"|"recv", transfer)`` in the order the rank issues them."""
    if len(sends) == 1:
        out = sends[0]
        if not recvs:
            return [("send", out)]
        if len(recvs) == 1 and out.dst == recvs[0].src:
            inc = recvs[0]
            # Figure 3 (LOWER_SEND_FIRST): lower rank sends first;
            # Figure 2 (LOWER_RECV_FIRST): lower rank receives first.
            if (rank < out.dst) == (exchange_order == LOWER_SEND_FIRST):
                return [("send", out), ("recv", inc)]
            return [("recv", inc), ("send", out)]
    elif not sends and len(recvs) == 1:
        return [("recv", recvs[0])]
    if sends:
        # Mixed partners: receive-before-send iff the source is lower.
        early = sorted((r for r in recvs if r.src < rank), key=lambda t: t.src)
        late = sorted((r for r in recvs if r.src > rank), key=lambda t: t.src)
        return (
            [("recv", t) for t in early]
            + [("send", t) for t in sorted(sends, key=lambda t: t.dst)]
            + [("recv", t) for t in late]
        )
    # Linear-family step: the receiver drains sources in order.
    return [("recv", t) for t in sorted(recvs, key=lambda t: t.src)]


def step_actions_program(sched: Schedule, rank: int) -> List[tuple]:
    """The oracle: a rank's requests, step by step from ``step_actions``,
    as ``(kind, peer, tag, bytes)`` (a Delay has no peer or tag)."""
    want = []
    for step_idx, step in enumerate(sched.steps):
        sends = [t for t in step if t.src == rank]
        recvs = [t for t in step if t.dst == rank]
        for kind, t in step_actions(rank, sends, recvs, sched.exchange_order):
            if kind == "send":
                if t.pack_bytes:
                    want.append((executor.DELAY, 0, 0, t.pack_bytes))
                want.append((executor.SEND, t.dst, step_idx, t.nbytes))
            else:
                want.append((executor.RECV, t.src, step_idx, 0))
                if t.unpack_bytes:
                    want.append((executor.DELAY, 0, 0, t.unpack_bytes))
    return want


class TestOneProgramPerSchedule:
    def test_lint_then_execute_builds_programs_once(self, monkeypatch):
        # Every compile counts: the kernel's when it is loaded, NumPy's
        # without it.
        calls = []
        real_numpy, real_kernel = executor._compile, executor._kernel_compile

        def counted_numpy(schedule):
            calls.append(schedule.name)
            return real_numpy(schedule)

        def counted_kernel(k, schedule):
            calls.append(schedule.name)
            return real_kernel(k, schedule)

        monkeypatch.setattr(executor, "_compile", counted_numpy)
        monkeypatch.setattr(executor, "_kernel_compile", counted_kernel)
        pattern = CommPattern.synthetic(8, 0.5, 64, seed=4)
        sched = schedule_irregular(pattern, "greedy")
        assert lint_schedule(sched, pattern).ok
        assert len(calls) == 1
        program = executor.compiled_program(sched)
        execute_schedule(sched, MachineConfig(8))
        execute_schedule(sched, MachineConfig(8), trace=True)
        lint_schedule(sched, pattern)
        assert len(calls) == 1
        assert executor.compiled_program(sched) is program

    @settings(max_examples=300, deadline=None)
    @given(sched=step_sets())
    def test_program_is_the_concatenated_step_actions(self, sched):
        assert_program_is_the_concatenated_step_actions(sched)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize(
        "build", [linear_exchange, pairwise_exchange, balanced_exchange, recursive_exchange]
    )
    def test_builder_program_is_the_concatenated_step_actions(self, build, order):
        # REX's multi-step pack/unpack included.
        built = build(8, 64)
        sched = Schedule(8, built.steps, built.name, order)
        assert_program_is_the_concatenated_step_actions(sched)


def assert_program_is_the_concatenated_step_actions(sched: Schedule) -> None:
    """Every rank's compiled ops are its ``step_actions`` requests."""
    program = executor.compiled_program(sched)
    ops = program.ops.tolist()
    starts = program.starts.tolist()
    assert starts[0] == 0 and starts[-1] == len(ops)
    for rank in range(sched.nprocs):
        got = []
        for kind, peer, tag, index in ops[starts[rank] : starts[rank + 1]]:
            if kind == executor.SEND:
                got.append((kind, peer, tag, program.sizes[index]))
            elif kind == executor.RECV:
                got.append((kind, peer, tag, index))
            else:
                got.append((kind, peer, tag, program.copies[index]))
        assert got == step_actions_program(sched, rank)
    # The same transfers given as columns compile to the same ops.
    twin = Schedule.from_columns(
        sched.nprocs, sched.columns, sched.name, sched.exchange_order
    )
    assert executor.compiled_program(twin).ops.tolist() == ops


@settings(max_examples=300, deadline=None)
@given(sched=step_sets(), with_pattern=st.booleans())
def test_same_findings_as_reference_on_drawn_steps(sched, with_pattern):
    # Empty steps, linear and mixed steps, against a complete exchange
    # of 8 bytes.
    pattern = CommPattern.complete_exchange(sched.nprocs, 8) if with_pattern else None
    got = lint_schedule(sched, pattern).issues
    assert got == ref_lint_issues(sched, pattern, False)
