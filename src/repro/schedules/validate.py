"""Static schedule linter: machine-checkable validity before pricing.

The repo prices schedules with three independent backends (the analytic
estimator, the fluid discrete-event simulator, and the packet-level
validator).  All three *assume* a schedule is well-formed; this module
checks that assumption statically, so a bad generator or a hand-edited
schedule JSON fails loudly with named ranks and steps instead of
producing a confidently wrong number — the same role Träff's
checkable-schedule artifacts play for provably optimal broadcast trees.

A schedule that exists already passed the constructors' gate (in-range
ranks, no self-transfer, no negative byte count, no directed ``(src,
dst)`` pair twice in a step; see
:class:`~repro.schedules.schedule.Schedule`).  Four families of checks
go beyond it:

* **structure** — at most one send per rank per step (multi-receive is
  legal: the linear family's defining pathology);
* **conservation** — against a :class:`CommPattern`: every pattern byte
  appears in exactly one transfer, with no duplicates, spurious
  transfers, or wrong byte counts (skipped, with a warning, for
  store-and-forward schedules whose wire transfers carry staged
  aggregates);
* **deadlock** — the executor's Figure-2/3 orderings induce, per rank,
  a sequence of blocking rendezvous operations: the executor's own
  per-rank programs (:func:`~repro.schedules.executor.compiled_program`,
  the ops both :func:`~repro.schedules.executor.schedule_program` and
  the compiled executor run).  Name each op by its transfer's ``(src,
  dst)``: rank r's receive from a lower rank p is ``(p, r)``, a send
  ``(r, q)``, a receive from a higher rank ``(p, r)`` with ``p > r``.
  Inside a step every rank runs its ops in increasing ``(src, dst)``
  order, and steps only go forward, so ``(step, src, dst)`` order is a
  topological order of every rank's program: the least unfinished
  transfer is always both its ranks' next op, and nothing can stall.
  The one exception is a Figure 2 flip of a rank's whole-step
  exchange; when the partner flips it too, the pair touches no other
  op of its step and both ranks run it in the same order, so swapping
  the two keeps the order topological.  The compile certifies every
  flip mirrored as :attr:`~repro.schedules.executor.Program.live`.
  Only a program without the certificate is replayed, with one cursor per rank, in
  O(messages); on a stall the replay names the cycle in the wait-for
  graph (rank A waits for B waits for ... A);
* **payload mode** — REX-style store-and-forward schedules must not be
  executed in payload mode (their transfers carry staged aggregates,
  not per-pair payloads); ``payload_mode=True`` turns that into an
  error.

Every check reads :attr:`Schedule.columns
<repro.schedules.schedule.Schedule.columns>` in NumPy passes; findings
are built only for the failing rows.

Use :func:`lint_schedule` for a report, :func:`validate_schedule` to
raise :class:`LintError` on the first failing report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .executor import DELAY, SEND, Program, compiled_program
from .pattern import CommPattern
from .schedule import Schedule, first_occurrence

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
    """Per step, its senders of more than one message in order of first
    appearance."""
    step, src = schedule.columns[:2]
    sends = np.bincount(first_occurrence(step, src, ordered=True), minlength=step.size)
    for k in np.flatnonzero(sends > 1).tolist():
        text = f"rank {src[k]} sends {sends[k]} messages (one network interface)"
        issues.append(
            LintIssue("structure.multi-send", ERROR, f"step {step[k] + 1}: {text}")
        )


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
def _check_conservation(
    schedule: Schedule, pattern: CommPattern, issues: List[LintIssue]
) -> None:
    """Every pattern byte in exactly one transfer, nothing extra.

    A transfer's claim is on its ``(src, dst)`` entry; the first claim
    counts and a later one is a duplicate.  A zero-byte transfer on a
    zero entry is a sync message (the Figure 5 axis includes size 0):
    it carries no pattern bytes, so conservation has no claim on it.
    """
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
    cols = schedule.columns
    step, src, dst, nbytes = cols[:4]
    required = pattern.matrix[src, dst]
    claims = np.flatnonzero((nbytes != 0) | (required != 0))
    first = claims[first_occurrence(src[claims], dst[claims])]
    wrong = (required == 0) | (nbytes != required)
    bad = (first != claims) | wrong[claims]
    for k, f in zip(claims[bad].tolist(), first[bad].tolist()):
        s, a, b, carried = cols[:4, k].tolist()
        need = int(required[k])
        if k != f:
            code = "duplicate"
            text = (
                f"transfer {a}->{b} appears in steps {step[f] + 1} and {s + 1}: "
                f"bytes would be delivered twice"
            )
        elif not need:
            code = "spurious"
            text = (
                f"step {s + 1}: transfer {a}->{b} carries {carried}B but the "
                f"pattern requires none"
            )
        else:
            code = "byte-count"
            text = (
                f"step {s + 1}: transfer {a}->{b} carries {carried}B, "
                f"pattern requires {need}B"
            )
        issues.append(LintIssue(f"conservation.{code}", ERROR, text))
    for a, b, need in pattern.operations_not_in(src[claims], dst[claims]):
        issues.append(
            LintIssue(
                "conservation.missing",
                ERROR,
                f"pattern bytes lost: no transfer {a}->{b} ({need}B) in any step",
            )
        )


# ----------------------------------------------------------------------
# Deadlock
# ----------------------------------------------------------------------
def _describe(op: List[int]) -> str:
    kind, peer, step = op
    if kind == SEND:
        return f"send->{peer} (step {step + 1})"
    return f"recv<-{peer} (step {step + 1})"


def _check_deadlock(schedule: Schedule, issues: List[LintIssue]) -> None:
    """Name any wait cycle of the executor's rank programs; a ``live``
    program cannot stall (module docstring) and is not replayed."""
    program = compiled_program(schedule)
    if not program.live:
        _replay(program, issues)


def _replay(program: Program, issues: List[LintIssue]) -> None:
    """Replay the rank programs; report the ranks left waiting.

    Each rank's head op waits for its partner's matching op (synchronous
    CMMD semantics: a send blocks until the receive is posted and vice
    versa).  The replay keeps one cursor per rank over the wire ops
    (``Delay`` rows skipped) of
    :func:`~repro.schedules.executor.compiled_program`.  A rank that
    advances re-examines its own new head, and its partner goes on the
    work list; a match is symmetric, so whichever side of a completable
    rendezvous advanced last finds it.  Every op retires at most once,
    so the replay is O(messages).  Matching is confluent, so the stuck
    set does not depend on visit order.  When no head matches, the
    remaining ranks form a wait-for graph in which every stuck rank has
    exactly one outgoing edge.  Its head's mate is the other record of
    the same transfer, unique since no ``(step, src, dst)`` repeats, so
    a partner that finished would have retired it: the partner is stuck
    too, and following the edges from the least stuck rank ends in a
    cycle (classic rendezvous deadlock).
    """
    wire = program.ops[:, 0] != DELAY
    # (kind, peer, step) per wire op; rank r's are ops[pos[r]:ends[r]].
    ops = program.ops[wire, :3].tolist()
    bounds = np.concatenate(([0], np.cumsum(wire)))[program.starts].tolist()
    pos, ends = bounds[:-1], bounds[1:]
    n = len(pos)
    todo = list(range(n))
    while todo:
        r = todo.pop()
        i, end = pos[r], ends[r]
        while i < end:
            kind, p, step = ops[i]
            if pos[p] == ends[p]:
                break
            mate_kind, mate_peer, mate_step = ops[pos[p]]
            if mate_kind == kind or mate_step != step or mate_peer != r:
                break
            i += 1
            pos[p] += 1
            todo.append(p)
        pos[r] = i

    stuck = {r: ops[pos[r]] for r in range(n) if pos[r] < ends[r]}
    if not stuck:
        return

    # Follow the wait-for edges from the least stuck rank until one repeats.
    order: Dict[int, int] = {}
    r = min(stuck)
    while r not in order:
        order[r] = len(order)
        r = stuck[r][1]
    cycle = list(order)[order[r]:]
    described = ", ".join(f"rank {r} {_describe(stuck[r])}" for r in cycle)
    issues.append(
        LintIssue(
            "deadlock.cycle",
            ERROR,
            f"cyclic rendezvous wait-for graph among ranks {cycle}: {described}",
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
    # Transfers carrying staged aggregates (REX-style store-and-forward).
    staged = int(np.count_nonzero(schedule.columns[4:].any(axis=0)))
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
