"""Unit tests for the schedule IR and its validity gate."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.schedules import (
    CommPattern,
    Schedule,
    ScheduleError,
    balanced_exchange,
    balanced_schedule,
    coloring_schedule,
    greedy_schedule,
    linear_broadcast,
    linear_exchange,
    linear_schedule,
    local_schedule,
    pairwise_exchange,
    pairwise_schedule,
    recursive_broadcast,
    recursive_exchange,
    schedule_from_json,
)
from repro.schedules.schedule import MAX_NPROCS, MAX_STEPS, check_transfer

from .checks import Step, Transfer, render_table, schedule_of, steps_of
from .test_lint_oracles import step_sets

EMPTY = np.zeros((6, 0), dtype=np.int64)


def sched(steps, n=4, name="t"):
    return schedule_of(n, steps, name=name)


class TestTransfer:
    def test_self_transfer_rejected(self):
        with pytest.raises(ScheduleError, match="self-transfer at rank 1"):
            check_transfer(1, 1, 8, 0, 0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ScheduleError, match="negative byte count"):
            check_transfer(0, 1, -8, 0, 0)
        with pytest.raises(ScheduleError, match="negative byte count"):
            check_transfer(0, 1, 8, -1, 0)

    @pytest.mark.parametrize(
        "fields",
        [(0, 1, 2**63, 0, 0), (0, 1, 8, 2**64, 0), (-(2**63) - 1, 0, 8, 0, 0), (0, 2**63, 8, 0, 0)],
        ids=["nbytes", "pack-bytes", "src", "dst"],
    )
    def test_fields_outside_int64_rejected(self, fields):
        # The columns the executor and linter compile from are int64.
        with pytest.raises(ScheduleError, match="does not fit int64"):
            check_transfer(*fields)
        check_transfer(0, 1, 2**63 - 1, 0, 0)

    # The tests' per-transfer view raises the gate's errors as it is built.
    @pytest.mark.parametrize(
        "fields",
        [(0, 1, float("nan")), (0, 1, 1.5), (True, 0, 8)],
        ids=["nan-bytes", "float-bytes", "bool-rank"],
    )
    def test_non_integral_fields_rejected(self, fields):
        with pytest.raises(ScheduleError, match="must be an integer"):
            Transfer(*fields)

    def test_numpy_integers_accepted(self):
        t = Transfer(np.int64(0), np.int32(1), np.int64(8), pack_bytes=np.uint8(2))
        assert t == Transfer(0, 1, 8, pack_bytes=2)
        assert schedule_of(2, [[t]]) == schedule_of(2, [[Transfer(0, 1, 8, 2)]])

    def test_pair_is_unordered(self):
        assert Transfer(2, 1, 8).pair == (1, 2)
        assert Transfer(1, 2, 8).pair == (1, 2)


class TestStep:
    """The per-step render, the oracle of ``Schedule.render_table``."""

    def test_exchange_detection(self):
        s = Step((Transfer(0, 1, 8), Transfer(1, 0, 8), Transfer(2, 3, 8)))
        exchanges, singles = s.exchanges_and_singles()
        assert len(exchanges) == 1
        assert exchanges[0][0].src == 0  # low end first
        assert [t.src for t in singles] == [2]

    def test_render(self):
        s = Step((Transfer(3, 2, 8), Transfer(0, 1, 8), Transfer(2, 3, 8), Transfer(1, 0, 8)))
        assert s.render() == "2<->3  0<->1"
        assert Step((Transfer(0, 1, 8), Transfer(2, 1, 8))).render() == "0->1  2->1"
        assert Step(()).render() == ""


class TestSchedule:
    def test_out_of_range_transfer_rejected(self):
        with pytest.raises(ScheduleError):
            sched([[Transfer(0, 5, 8)]], n=4)

    def test_duplicate_directed_transfer_rejected(self):
        with pytest.raises(ScheduleError, match="duplicate transfer 0->1 in step"):
            sched([[Transfer(0, 1, 8), Transfer(0, 1, 16)]])

    def test_unknown_exchange_order_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(4, EMPTY, exchange_order="sideways")

    def test_counts(self):
        s = sched([[Transfer(0, 1, 8)], [Transfer(1, 0, 16)]])
        assert s.nsteps == 2
        assert s.n_messages == 2
        assert s.total_bytes == 24

    def test_render_table_contains_steps(self):
        s = sched([[Transfer(0, 1, 8), Transfer(1, 0, 8), Transfer(2, 3, 8)], []], name="demo")
        assert s.render_table() == (
            "demo (4 processors, 2 steps)\n  Step 1: 0<->1  2->3\n  Step 2: "
        )

    def test_equality_reads_every_field(self):
        s = pairwise_exchange(8, 64)
        assert s == Schedule(8, s.columns.copy(), "PEX") and hash(s) == hash(
            Schedule(8, s.columns.copy(), "PEX")
        )
        cols = s.columns.copy()
        cols[3, -1] += 1
        for other in (
            Schedule(8, cols, "PEX"),
            Schedule(8, s.columns, "BEX"),
            Schedule(16, s.columns, "PEX"),
            Schedule(8, s.columns, "PEX", "lower_send_first"),
            Schedule(8, s.columns, "PEX", nsteps=8),
        ):
            assert s != other


# ----------------------------------------------------------------------
# render_table reads the columns; the per-step render is its oracle.
# ----------------------------------------------------------------------
def _pattern(n):
    return CommPattern.synthetic(n, 0.5, 64, seed=3)


#: Every builder on ``n`` nodes.
BUILDERS_ON = {
    "PEX": lambda n: pairwise_exchange(n, 64),
    "BEX": lambda n: balanced_exchange(n, 64),
    "LEX": lambda n: linear_exchange(n, 64),
    "REX": lambda n: recursive_exchange(n, 64),
    "LIB": lambda n: linear_broadcast(n, 3 % n, 64),
    "REB": lambda n: recursive_broadcast(n, 5 % n, 64),
    "LS": lambda n: linear_schedule(_pattern(n)),
    "PS": lambda n: pairwise_schedule(_pattern(n)),
    "BS": lambda n: balanced_schedule(_pattern(n)),
    "GS": lambda n: greedy_schedule(_pattern(n)),
    "coloring": lambda n: coloring_schedule(_pattern(n)),
    "local": lambda n: local_schedule(_pattern(n)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS_ON))
def test_render_table_matches_the_per_step_render_on_builders(name):
    sched = BUILDERS_ON[name](8)
    assert sched.render_table() == render_table(sched)


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("name", sorted(BUILDERS_ON))
def test_render_table_matches_the_per_step_render_at_other_sizes(name, n):
    # Two ranks: one pair, so every exchange is the whole step; sixteen:
    # LEX's fifteen senders into one receiver, REX's staged rows.
    sched = BUILDERS_ON[name](n)
    assert sched.render_table() == render_table(sched)


@pytest.mark.parametrize("name", sorted(BUILDERS_ON))
def test_steps_round_trip_on_builders(name):
    # The tests' per-step view of every builder's schedule builds the
    # same schedule back.
    sched = BUILDERS_ON[name](8)
    back = schedule_of(sched.nprocs, steps_of(sched), sched.name, sched.exchange_order)
    assert back == sched and hash(back) == hash(sched)
    assert back.columns.tobytes() == sched.columns.tobytes()


@settings(max_examples=300, deadline=None)
@given(sched=step_sets())
def test_render_table_matches_the_per_step_render_on_drawn_steps(sched):
    # Drawn steps hold exchanges, one-way sends and empty steps.
    assert sched.render_table() == render_table(sched)


def test_src_has_no_per_transfer_view():
    """The library is columns only: no module under ``src/repro`` defines
    or imports ``Step`` or ``Transfer``, and a schedule has no ``steps``."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[-1] for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(root)}: {n}" for n in names if n in ("Step", "Transfer")]
    assert found == []
    assert not hasattr(pairwise_exchange(8, 64), "steps")


# ----------------------------------------------------------------------
# The gate: the constructor and the JSON reader reject the same input
# with the same text.
# ----------------------------------------------------------------------
def _document(nprocs, steps):
    return json.dumps(
        {
            "format": "repro-schedule",
            "version": 1,
            "name": "t",
            "nprocs": nprocs,
            "exchange_order": "lower_recv_first",
            "steps": steps,
        }
    )


def _rejections(nprocs, steps, edit=None):
    """The ``ScheduleError`` text of each entry point on the same schedule:
    ``Schedule`` and ``schedule_from_json`` over the rows of transfers
    ``edit`` mutates after they were built (without the reader's
    "malformed schedule document: " prefix, which it puts on every error
    of a well-framed document)."""
    built = [[Transfer(*row) for row in step] for step in steps]
    if edit is not None:
        edit(built)
    rows = [[[t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes] for t in s] for s in built]
    cols = np.array(
        [[i, *row] for i, step in enumerate(rows) for row in step], dtype=np.int64
    ).reshape(-1, 6).T
    texts = []
    for build in (
        lambda: Schedule(nprocs, cols, "t", nsteps=len(rows)),
        lambda: schedule_from_json(_document(nprocs, rows)),
    ):
        with pytest.raises(ScheduleError) as info:
            build()
        texts.append(str(info.value))
    prefix = "malformed schedule document: "
    assert texts[1].startswith(prefix)
    return [texts[0], texts[1][len(prefix) :]]


def _set(step, k, field, value):
    def edit(built):
        object.__setattr__(built[step][k], field, value)

    return edit


class TestGate:
    STEPS = [[(0, 1, 64), (1, 0, 64)], [(2, 3, 8), (2, 1, 8)]]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set(1, 0, "src", 4), "transfer 4->3 outside 0..3"),
            (_set(1, 0, "dst", 9), "transfer 2->9 outside 0..3"),
            (_set(1, 0, "src", -1), "transfer -1->3 outside 0..3"),
            (_set(1, 0, "dst", 2), "self-transfer at rank 2"),
            (
                _set(1, 0, "nbytes", -5),
                "negative byte count in Transfer(src=2, dst=3, nbytes=-5, "
                "pack_bytes=0, unpack_bytes=0)",
            ),
            (
                _set(1, 0, "pack_bytes", -1),
                "negative byte count in Transfer(src=2, dst=3, nbytes=8, "
                "pack_bytes=-1, unpack_bytes=0)",
            ),
            (
                _set(1, 0, "unpack_bytes", -1),
                "negative byte count in Transfer(src=2, dst=3, nbytes=8, "
                "pack_bytes=0, unpack_bytes=-1)",
            ),
            (_set(1, 1, "dst", 3), "duplicate transfer 2->3 in step"),
        ],
        ids=[
            "src-past-nprocs",
            "dst-past-nprocs",
            "negative-rank",
            "self-transfer",
            "negative-nbytes",
            "negative-pack",
            "negative-unpack",
            "repeated-pair",
        ],
    )
    def test_every_entry_point_rejects_a_crafted_edit(self, edit, message):
        assert _rejections(4, self.STEPS, edit) == [message] * 2

    @pytest.mark.parametrize("nprocs", [-3, 0, 1, MAX_NPROCS + 1, 2**70])
    def test_nprocs_outside_the_machine_rejected(self, nprocs):
        message = f"schedule nprocs must be an integer in 2..16384, got {nprocs}"
        assert _rejections(nprocs, []) == [message] * 2

    @pytest.mark.parametrize("nprocs", [1.5, True, "4"])
    def test_non_integer_nprocs_rejected(self, nprocs):
        message = f"schedule nprocs must be an integer in 2..16384, got {nprocs!r}"
        with pytest.raises(ScheduleError) as info:
            Schedule(nprocs, EMPTY)
        assert str(info.value) == message

    def test_nprocs_bounds_accepted(self):
        assert Schedule(2, EMPTY).nprocs == 2
        assert Schedule(np.int64(MAX_NPROCS), np.zeros((6, 0), int)).nsteps == 0

    @pytest.mark.parametrize("nsteps", [2.5, True, "3"])
    def test_non_integer_nsteps_rejected(self, nsteps):
        with pytest.raises(ScheduleError) as info:
            Schedule(4, np.zeros((6, 0), dtype=np.int64), nsteps=nsteps)
        assert str(info.value) == f"schedule nsteps must be an integer, got {nsteps!r}"

    def test_integer_nsteps_accepted(self):
        empty = np.zeros((6, 0), dtype=np.int64)
        assert Schedule(4, empty, nsteps=np.int64(3)).nsteps == 3

    def test_sparse_step_indices_past_the_step_cap_rejected(self):
        # PEX on 16 nodes with every step index shifted by 2**55: the
        # schedule would have 2**55 + 15 steps.
        cols = pairwise_exchange(16, 64).columns.copy()
        cols[0] += 2**55
        with pytest.raises(ScheduleError) as info:
            Schedule(16, cols)
        assert str(info.value) == (
            f"schedule has {2**55 + 15} steps, more than {MAX_STEPS}"
        )

    def test_step_cap_bounds_nsteps(self):
        empty = np.zeros((6, 0), dtype=np.int64)
        assert Schedule(4, empty, nsteps=MAX_STEPS).nsteps == MAX_STEPS
        with pytest.raises(ScheduleError, match=f"more than {MAX_STEPS}"):
            Schedule(4, empty, nsteps=MAX_STEPS + 1)
        last = np.array([[MAX_STEPS - 1], [0], [1], [8], [0], [0]])
        assert Schedule(4, last).nsteps == MAX_STEPS
        with pytest.raises(ScheduleError, match=f"more than {MAX_STEPS}"):
            Schedule(4, last + [[1], [0], [0], [0], [0], [0]])
