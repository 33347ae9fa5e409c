"""Unit tests for the schedule IR and its validity gate."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.schedules import (
    Schedule,
    ScheduleError,
    Step,
    Transfer,
    pairwise_exchange,
    schedule_from_json,
)
from repro.schedules.schedule import MAX_NPROCS, MAX_STEPS


def sched(steps, n=4, name="t"):
    return Schedule(nprocs=n, steps=tuple(Step(tuple(s)) for s in steps), name=name)


class TestTransfer:
    def test_self_transfer_rejected(self):
        with pytest.raises(ScheduleError):
            Transfer(1, 1, 8)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ScheduleError):
            Transfer(0, 1, -8)
        with pytest.raises(ScheduleError):
            Transfer(0, 1, 8, pack_bytes=-1)

    @pytest.mark.parametrize(
        "fields",
        [(0, 1, float("nan")), (0, 1, 1.5), (True, 0, 8)],
        ids=["nan-bytes", "float-bytes", "bool-rank"],
    )
    def test_non_integral_fields_rejected(self, fields):
        # A NaN used to pass and fail later in the engine's wire_bytes.
        with pytest.raises(ScheduleError, match="must be an integer"):
            Transfer(*fields)

    @pytest.mark.parametrize(
        "fields",
        [(0, 1, 2**63), (0, 1, 8, 2**64), (-(2**63) - 1, 0, 8), (0, 2**63, 8)],
        ids=["nbytes", "pack-bytes", "src", "dst"],
    )
    def test_fields_outside_int64_rejected(self, fields):
        # The columns the executor and linter compile from are int64.
        with pytest.raises(ScheduleError, match="does not fit int64"):
            Transfer(*fields)
        assert Transfer(0, 1, 2**63 - 1).nbytes == 2**63 - 1

    def test_numpy_integers_accepted(self):
        t = Transfer(np.int64(0), np.int32(1), np.int64(8), pack_bytes=np.uint8(2))
        assert t == Transfer(0, 1, 8, pack_bytes=2)

    def test_pair_is_unordered(self):
        assert Transfer(2, 1, 8).pair == (1, 2)
        assert Transfer(1, 2, 8).pair == (1, 2)


class TestStep:
    def test_exchange_detection(self):
        s = Step((Transfer(0, 1, 8), Transfer(1, 0, 8), Transfer(2, 3, 8)))
        exchanges, singles = s.exchanges_and_singles()
        assert len(exchanges) == 1
        assert exchanges[0][0].src == 0  # low end first
        assert [t.src for t in singles] == [2]

    def test_render(self):
        s = Step((Transfer(0, 1, 8), Transfer(1, 0, 8), Transfer(2, 3, 8)))
        assert s.render() == "0<->1  2->3"


class TestSchedule:
    def test_out_of_range_transfer_rejected(self):
        with pytest.raises(ScheduleError):
            sched([[Transfer(0, 5, 8)]], n=4)

    def test_duplicate_directed_transfer_rejected(self):
        with pytest.raises(ScheduleError, match="duplicate transfer 0->1 in step"):
            sched([[Transfer(0, 1, 8), Transfer(0, 1, 16)]])

    def test_unknown_exchange_order_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(4, (), exchange_order="sideways")

    def test_counts(self):
        s = sched([[Transfer(0, 1, 8)], [Transfer(1, 0, 16)]])
        assert s.nsteps == 2
        assert s.n_messages == 2
        assert s.total_bytes == 24

    def test_render_table_contains_steps(self):
        text = sched([[Transfer(0, 1, 8)]], name="demo").render_table()
        assert "demo" in text and "Step 1" in text


_TRANSFER_BYTES = textwrap.dedent(
    """
    import sys
    import tracemalloc

    from repro.schedules import Transfer, linear_exchange

    if sys.argv[1] == "materialized":
        made = sum(map(len, linear_exchange(33, 8).steps))
        assert made >= 1000, made
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = [Transfer(0, 1, 2) for _ in range(5000)]
    print((tracemalloc.get_traced_memory()[0] - before) / len(kept))
    """
)


def _bytes_per_transfer(mode):
    """Bytes per ``Transfer(...)`` in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _TRANSFER_BYTES, mode],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout)


def test_materialized_steps_keep_later_transfers_small():
    # Column-built steps materialize their transfers without running the
    # constructor; done first in a process, that once made every later
    # Transfer(...) more than twice as large.
    fresh = _bytes_per_transfer("fresh")
    after = _bytes_per_transfer("materialized")
    assert after <= 1.2 * fresh, (fresh, after)


# ----------------------------------------------------------------------
# The gate: both constructors and the JSON reader reject the same input
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
    the steps constructor over transfers ``edit`` mutates after they were
    built, ``Schedule.from_columns`` and ``schedule_from_json`` over the
    edited rows (without the reader's "malformed schedule document: "
    prefix, which it puts on every error of a well-framed document)."""
    built = [[Transfer(*row) for row in step] for step in steps]
    if edit is not None:
        edit(built)
    rows = [[[t.src, t.dst, t.nbytes, t.pack_bytes, t.unpack_bytes] for t in s] for s in built]
    cols = np.array(
        [[i, *row] for i, step in enumerate(rows) for row in step], dtype=np.int64
    ).reshape(-1, 6).T
    texts = []
    for build in (
        lambda: Schedule(nprocs, tuple(Step(tuple(s)) for s in built), "t"),
        lambda: Schedule.from_columns(nprocs, cols, "t", nsteps=len(rows)),
        lambda: schedule_from_json(_document(nprocs, rows)),
    ):
        with pytest.raises(ScheduleError) as info:
            build()
        texts.append(str(info.value))
    prefix = "malformed schedule document: "
    assert texts[2].startswith(prefix)
    return texts[:2] + [texts[2][len(prefix) :]]


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
        assert _rejections(4, self.STEPS, edit) == [message] * 3

    @pytest.mark.parametrize("nprocs", [-3, 0, 1, MAX_NPROCS + 1, 2**70])
    def test_nprocs_outside_the_machine_rejected(self, nprocs):
        message = f"schedule nprocs must be an integer in 2..16384, got {nprocs}"
        assert _rejections(nprocs, []) == [message] * 3

    @pytest.mark.parametrize("nprocs", [1.5, True, "4"])
    def test_non_integer_nprocs_rejected(self, nprocs):
        message = f"schedule nprocs must be an integer in 2..16384, got {nprocs!r}"
        empty = np.zeros((6, 0), dtype=np.int64)
        for build in (
            lambda: Schedule(nprocs, ()),
            lambda: Schedule.from_columns(nprocs, empty),
        ):
            with pytest.raises(ScheduleError) as info:
                build()
            assert str(info.value) == message

    def test_nprocs_bounds_accepted(self):
        assert Schedule(2, ()).nprocs == 2
        assert Schedule.from_columns(np.int64(MAX_NPROCS), np.zeros((6, 0), int)).nsteps == 0

    @pytest.mark.parametrize("nsteps", [2.5, True, "3"])
    def test_non_integer_nsteps_rejected(self, nsteps):
        with pytest.raises(ScheduleError) as info:
            Schedule.from_columns(4, np.zeros((6, 0), dtype=np.int64), nsteps=nsteps)
        assert str(info.value) == f"schedule nsteps must be an integer, got {nsteps!r}"

    def test_integer_nsteps_accepted(self):
        empty = np.zeros((6, 0), dtype=np.int64)
        assert Schedule.from_columns(4, empty, nsteps=np.int64(3)).nsteps == 3

    def test_sparse_step_indices_past_the_step_cap_rejected(self):
        # PEX on 16 nodes with every step index shifted by 2**55: the
        # schedule would have 2**55 + 15 steps.
        cols = pairwise_exchange(16, 64).columns.copy()
        cols[0] += 2**55
        with pytest.raises(ScheduleError) as info:
            Schedule.from_columns(16, cols)
        assert str(info.value) == (
            f"schedule has {2**55 + 15} steps, more than {MAX_STEPS}"
        )

    def test_step_cap_bounds_nsteps(self):
        empty = np.zeros((6, 0), dtype=np.int64)
        assert Schedule.from_columns(4, empty, nsteps=MAX_STEPS).nsteps == MAX_STEPS
        with pytest.raises(ScheduleError, match=f"more than {MAX_STEPS}"):
            Schedule.from_columns(4, empty, nsteps=MAX_STEPS + 1)
        last = np.array([[MAX_STEPS - 1], [0], [1], [8], [0], [0]])
        assert Schedule.from_columns(4, last).nsteps == MAX_STEPS
        with pytest.raises(ScheduleError, match=f"more than {MAX_STEPS}"):
            Schedule.from_columns(4, last + [[1], [0], [0], [0], [0], [0]])
