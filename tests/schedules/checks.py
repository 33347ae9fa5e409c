"""Per-step helpers shared by the schedule tests."""

from repro.schedules import ScheduleError, Step


def assert_one_receive_per_rank_per_step(schedule):
    """No rank receives two messages in one step.  The linter allows it
    (the linear family's serialized receiver); the other builders never
    do it."""
    step, dst = schedule.columns[0], schedule.columns[2]
    seats = set(zip(step.tolist(), dst.tolist()))
    assert len(seats) == step.size, f"{schedule.name}: a rank receives twice in a step"


def transfers(schedule):
    """``(step_index, transfer)`` over the schedule's ``steps`` view."""
    return ((i, t) for i, step in enumerate(schedule.steps) for t in step)


def checked_step(transfers):
    """A :class:`Step` of ``transfers``, raising on a repeated pair the
    error the schedule constructor raises for it.  A per-transfer reader
    that checks each step as it builds it meets the errors in document
    order, which is the order the column checks keep."""
    seen = set()
    for t in transfers:
        if (t.src, t.dst) in seen:
            raise ScheduleError(f"duplicate transfer {t.src}->{t.dst} in step")
        seen.add((t.src, t.dst))
    return Step(tuple(transfers))
