"""Static schedule linter: machine-checkable validity before pricing.

The repo prices schedules with three independent backends (the analytic
estimator, the fluid discrete-event simulator, and the packet-level
validator).  All three *assume* a schedule is well-formed; this module
checks that assumption statically, so a bad generator or a hand-edited
schedule JSON fails loudly with named ranks and steps instead of
producing a confidently wrong number — the same role Träff's
checkable-schedule artifacts play for provably optimal broadcast trees.

Four families of checks:

* **structure** — in-range ranks, no self-transfers, no negative byte
  counts, at most one transfer per directed ``(src, dst)`` pair per
  step, at most one send per rank per step (multi-receive is legal: the
  linear family's defining pathology);
* **conservation** — against a :class:`CommPattern`: every pattern byte
  appears in exactly one transfer, with no duplicates, spurious
  transfers, or wrong byte counts (skipped, with a warning, for
  store-and-forward schedules whose wire transfers carry staged
  aggregates);
* **deadlock** — the executor's Figure-2/3 orderings induce, per rank,
  a sequence of blocking rendezvous operations.  The linter replays the
  executor's own per-rank programs
  (:func:`~repro.schedules.executor.rank_programs`, the list
  :func:`~repro.schedules.executor.schedule_program` runs) with one
  cursor per rank, in O(messages), and on a stall names the cycle in
  the wait-for graph (rank A waits for B waits for ... A);
* **payload mode** — REX-style store-and-forward schedules must not be
  executed in payload mode (their transfers carry staged aggregates,
  not per-pair payloads); ``payload_mode=True`` turns that into an
  error.

Use :func:`lint_schedule` for a report, :func:`validate_schedule` to
raise :class:`LintError` on the first failing report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .executor import Op, rank_programs
from .pattern import CommPattern
from .schedule import Schedule

__all__ = [
    "LintIssue",
    "LintReport",
    "LintError",
    "lint_schedule",
    "validate_schedule",
]

#: Issue severities: an ``error`` fails validation, a ``warning`` does not.
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class LintIssue:
    """One finding, with a stable machine-readable code."""

    code: str
    severity: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


class LintError(ValueError):
    """A schedule failed validation; carries the full report."""

    def __init__(self, report: "LintReport"):
        self.report = report
        errors = report.errors
        shown = "; ".join(i.message for i in errors[:3])
        more = f" (and {len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"{report.schedule_name}: {len(errors)} lint error(s): "
            f"{shown}{more}"
        )


@dataclass
class LintReport:
    """Outcome of linting one schedule."""

    schedule_name: str
    nprocs: int
    nsteps: int
    checks: List[str] = field(default_factory=list)
    issues: List[LintIssue] = field(default_factory=list)

    @property
    def errors(self) -> List[LintIssue]:
        return [i for i in self.issues if i.severity == ERROR]

    @property
    def warnings(self) -> List[LintIssue]:
        return [i for i in self.issues if i.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise LintError(self)

    def render(self) -> str:
        """One-line verdict plus one line per issue."""
        verdict = "OK" if self.ok else "FAIL"
        lines = [
            f"{verdict} {self.schedule_name} ({self.nprocs} procs, "
            f"{self.nsteps} steps; checks: {', '.join(self.checks)})"
        ]
        lines.extend(f"  {issue}" for issue in self.issues)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def _check_structure(schedule: Schedule, issues: List[LintIssue]) -> None:
    n = schedule.nprocs
    for step_idx, step in enumerate(schedule.steps):
        where = f"step {step_idx + 1}"
        seen_pairs: Set[Tuple[int, int]] = set()
        senders: List[int] = []
        for t in step.transfers:
            src, dst = t.src, t.dst
            if not (0 <= src < n and 0 <= dst < n):
                issues.append(
                    LintIssue(
                        "structure.rank-range",
                        ERROR,
                        f"{where}: transfer {src}->{dst} outside "
                        f"ranks 0..{n - 1}",
                    )
                )
            if src == dst:
                issues.append(
                    LintIssue(
                        "structure.self-transfer",
                        ERROR,
                        f"{where}: rank {src} sends to itself",
                    )
                )
            if t.nbytes < 0 or t.pack_bytes < 0 or t.unpack_bytes < 0:
                issues.append(
                    LintIssue(
                        "structure.negative-bytes",
                        ERROR,
                        f"{where}: transfer {src}->{dst} has a "
                        f"negative byte count",
                    )
                )
            key = (src, dst)
            if key in seen_pairs:
                issues.append(
                    LintIssue(
                        "structure.duplicate-pair",
                        ERROR,
                        f"{where}: duplicate transfer {src}->{dst}",
                    )
                )
            seen_pairs.add(key)
            senders.append(src)
        if len(set(senders)) == len(senders):
            continue
        for rank, c in Counter(senders).items():
            if c > 1:
                issues.append(
                    LintIssue(
                        "structure.multi-send",
                        ERROR,
                        f"{where}: rank {rank} sends {c} "
                        f"messages (one network interface)",
                    )
                )


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
def _staged_count(schedule: Schedule) -> int:
    """Transfers carrying staged aggregates (REX-style store-and-forward)."""
    return sum(
        1
        for step in schedule.steps
        for t in step.transfers
        if t.pack_bytes or t.unpack_bytes
    )


def _check_conservation(
    schedule: Schedule, pattern: CommPattern, issues: List[LintIssue]
) -> None:
    """Every pattern byte in exactly one transfer, nothing extra."""
    n = pattern.nprocs
    if schedule.nprocs != n:
        issues.append(
            LintIssue(
                "conservation.size-mismatch",
                ERROR,
                f"schedule is for {schedule.nprocs} procs, pattern for {n}",
            )
        )
        return
    matrix = pattern.matrix.tolist()
    seen: Dict[Tuple[int, int], int] = {}
    covered = 0  # distinct pattern entries some transfer claims
    for step_idx, step in enumerate(schedule.steps):
        for t in step.transfers:
            src, dst, nbytes = t.src, t.dst, t.nbytes
            if 0 <= src < n and 0 <= dst < n:
                required = matrix[src][dst]
                if not nbytes and not required:
                    # Zero-byte sync message (the Figure 5 axis includes
                    # size 0): carries no pattern bytes, so conservation
                    # has no claim on it.
                    continue
            else:
                required = None  # already reported by the structure check
            key = (src, dst)
            if key in seen:
                issues.append(
                    LintIssue(
                        "conservation.duplicate",
                        ERROR,
                        f"transfer {src}->{dst} appears in steps "
                        f"{seen[key] + 1} and {step_idx + 1}: bytes would "
                        f"be delivered twice",
                    )
                )
                continue
            seen[key] = step_idx
            if required is None:
                continue
            if not required:
                issues.append(
                    LintIssue(
                        "conservation.spurious",
                        ERROR,
                        f"step {step_idx + 1}: transfer {src}->{dst} "
                        f"carries {nbytes}B but the pattern requires none",
                    )
                )
                continue
            covered += 1
            if nbytes != required:
                issues.append(
                    LintIssue(
                        "conservation.byte-count",
                        ERROR,
                        f"step {step_idx + 1}: transfer {src}->{dst} "
                        f"carries {nbytes}B, pattern requires {required}B",
                    )
                )
    if covered == pattern.n_operations:
        return
    for src, dst, nbytes in pattern.operations():
        if (src, dst) not in seen:
            issues.append(
                LintIssue(
                    "conservation.missing",
                    ERROR,
                    f"pattern bytes lost: no transfer {src}->{dst} "
                    f"({nbytes}B) in any step",
                )
            )


# ----------------------------------------------------------------------
# Deadlock
# ----------------------------------------------------------------------
def _partner(op: Op) -> int:
    is_send, _, t = op
    return t.dst if is_send else t.src


def _describe(op: Op) -> str:
    is_send, step, t = op
    if is_send:
        return f"send->{t.dst} (step {step + 1})"
    return f"recv<-{t.src} (step {step + 1})"


def _check_deadlock(schedule: Schedule, issues: List[LintIssue]) -> None:
    """Replay the executor's rank programs; name any wait cycle.

    Each rank's head op waits for its partner's matching op (synchronous
    CMMD semantics: a send blocks until the receive is posted and vice
    versa).  The replay keeps one cursor per rank over
    :func:`~repro.schedules.executor.rank_programs`.  A rank that
    advances re-examines its own new head, and its partner goes on the
    work list; a match is symmetric, so whichever side of a completable
    rendezvous advanced last finds it.  Every op retires at most once,
    so the replay is O(messages).  Matching is confluent, so the stuck
    set does not depend on visit order.  When no head matches, the
    remaining ranks form a wait-for graph in which every stuck rank has
    exactly one outgoing edge, so a stall is either a cycle (classic
    rendezvous deadlock) or a dangling wait on a rank that already
    finished (an unmatched operation).
    """
    programs = rank_programs(schedule)
    n = len(programs)
    ends = [len(prog) for prog in programs]
    pos = [0] * n
    todo = list(range(n))
    while todo:
        r = todo.pop()
        prog = programs[r]
        i, end = pos[r], ends[r]
        while i < end:
            is_send, step, t = prog[i]
            p = t.dst if is_send else t.src
            if not 0 <= p < n or pos[p] == ends[p]:
                break
            mate_send, mate_step, m = programs[p][pos[p]]
            if (
                mate_send is is_send
                or mate_step != step
                or (m.dst if mate_send else m.src) != r
            ):
                break
            i += 1
            pos[p] += 1
            todo.append(p)
        pos[r] = i

    stuck = {r: programs[r][pos[r]] for r in range(n) if pos[r] < ends[r]}
    if not stuck:
        return

    # Follow the single outgoing wait-for edge of each stuck rank until a
    # rank repeats (a cycle) — or, failing that, report dangling waits.
    cycle: Optional[List[int]] = None
    for start in sorted(stuck):
        order: Dict[int, int] = {}
        chain: List[int] = []
        r = start
        while r in stuck and r not in order:
            order[r] = len(chain)
            chain.append(r)
            r = _partner(stuck[r])
        if r in order:
            cycle = chain[order[r]:]
            break
    if cycle is not None:
        described = ", ".join(f"rank {r} {_describe(stuck[r])}" for r in cycle)
        issues.append(
            LintIssue(
                "deadlock.cycle",
                ERROR,
                f"cyclic rendezvous wait-for graph among ranks "
                f"{cycle}: {described}",
            )
        )
    else:
        for r in sorted(stuck):
            partner = _partner(stuck[r])
            if partner not in stuck:
                issues.append(
                    LintIssue(
                        "deadlock.unmatched",
                        ERROR,
                        f"rank {r} blocks forever on "
                        f"{_describe(stuck[r])}: rank {partner} "
                        f"posts no matching operation",
                    )
                )


# ----------------------------------------------------------------------
# Payload mode
# ----------------------------------------------------------------------
def _check_payload_mode(
    staged: int, payload_mode: bool, issues: List[LintIssue]
) -> None:
    if not staged:
        return
    if payload_mode:
        issues.append(
            LintIssue(
                "payload.staged",
                ERROR,
                f"store-and-forward schedule used in payload mode: "
                f"{staged} transfer(s) carry staged aggregates "
                f"(pack/unpack bytes), not per-pair payloads",
            )
        )
    else:
        issues.append(
            LintIssue(
                "payload.staged",
                WARNING,
                f"store-and-forward schedule ({staged} staged "
                f"transfer(s)); do not execute in payload mode",
            )
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_schedule(
    schedule: Schedule,
    pattern: Optional[CommPattern] = None,
    payload_mode: bool = False,
) -> LintReport:
    """Run every applicable check; return the full report.

    ``pattern`` enables the byte-conservation check (skipped with a
    warning for store-and-forward schedules, whose wire bytes are staged
    aggregates validated by algorithm-specific routing checks instead).
    ``payload_mode`` marks the intent to execute the schedule with
    per-pair payload delivery, which store-and-forward schedules cannot
    honour.
    """
    report = LintReport(
        schedule_name=schedule.name,
        nprocs=schedule.nprocs,
        nsteps=schedule.nsteps,
    )
    report.checks.append("structure")
    _check_structure(schedule, report.issues)
    staged = _staged_count(schedule)
    if pattern is not None:
        if staged:
            report.checks.append("conservation(skipped)")
            report.issues.append(
                LintIssue(
                    "conservation.staged-skip",
                    WARNING,
                    "conservation not checkable for store-and-forward "
                    "schedules; rely on block-routing verification",
                )
            )
        else:
            report.checks.append("conservation")
            _check_conservation(schedule, pattern, report.issues)
    report.checks.append("deadlock")
    _check_deadlock(schedule, report.issues)
    report.checks.append("payload")
    _check_payload_mode(staged, payload_mode, report.issues)
    return report


def validate_schedule(
    schedule: Schedule,
    pattern: Optional[CommPattern] = None,
    payload_mode: bool = False,
) -> LintReport:
    """Lint and raise :class:`LintError` if any check failed."""
    report = lint_schedule(schedule, pattern, payload_mode)
    report.raise_if_failed()
    return report
