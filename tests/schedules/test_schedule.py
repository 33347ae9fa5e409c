"""Unit tests for the schedule IR and its validators."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.schedules import (
    CommPattern,
    Schedule,
    ScheduleError,
    Step,
    Transfer,
    check_covers_pattern,
    validate_structure,
)


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
    def test_duplicate_directed_transfer_rejected(self):
        with pytest.raises(ScheduleError):
            Step((Transfer(0, 1, 8), Transfer(0, 1, 16)))

    def test_participants(self):
        s = Step((Transfer(0, 1, 8), Transfer(2, 3, 8)))
        assert s.participants == {0, 1, 2, 3}

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
        made = sum(1 for _ in linear_exchange(33, 8).all_transfers())
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


class TestValidateStructure:
    def test_double_send_rejected(self):
        s = sched([[Transfer(0, 1, 8), Transfer(0, 2, 8)]])
        with pytest.raises(ScheduleError, match="sends 2"):
            validate_structure(s)

    def test_double_recv_rejected_by_default(self):
        s = sched([[Transfer(1, 0, 8), Transfer(2, 0, 8)]])
        with pytest.raises(ScheduleError, match="receives 2"):
            validate_structure(s)

    def test_multi_recv_allowed_for_linear_family(self):
        s = sched([[Transfer(1, 0, 8), Transfer(2, 0, 8)]])
        validate_structure(s, allow_multi_recv=True)

    def test_clean_schedule_passes(self):
        s = sched([[Transfer(0, 1, 8), Transfer(1, 0, 8), Transfer(2, 3, 8)]])
        validate_structure(s)


class TestCoverage:
    def pattern(self):
        return CommPattern([[0, 8, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0], [2, 0, 0, 0]])

    def test_exact_coverage_passes(self):
        s = sched([[Transfer(0, 1, 8), Transfer(3, 0, 2)], [Transfer(1, 2, 4)]])
        check_covers_pattern(s, self.pattern())

    def test_missing_transfer_detected(self):
        s = sched([[Transfer(0, 1, 8)], [Transfer(1, 2, 4)]])
        with pytest.raises(ScheduleError, match="missing"):
            check_covers_pattern(s, self.pattern())

    def test_wrong_bytes_detected(self):
        s = sched([[Transfer(0, 1, 9), Transfer(3, 0, 2)], [Transfer(1, 2, 4)]])
        with pytest.raises(ScheduleError, match="carries"):
            check_covers_pattern(s, self.pattern())

    def test_spurious_transfer_detected(self):
        s = sched(
            [[Transfer(0, 1, 8), Transfer(3, 0, 2)], [Transfer(1, 2, 4), Transfer(2, 1, 4)]]
        )
        with pytest.raises(ScheduleError, match="spurious"):
            check_covers_pattern(s, self.pattern())

    def test_duplicate_transfer_detected(self):
        s = sched(
            [[Transfer(0, 1, 8), Transfer(3, 0, 2)], [Transfer(1, 2, 4)], [Transfer(0, 1, 8)]]
        )
        with pytest.raises(ScheduleError, match="duplicate"):
            check_covers_pattern(s, self.pattern())

    def test_size_mismatch_detected(self):
        s = sched([[Transfer(0, 1, 8)]], n=8)
        with pytest.raises(ScheduleError, match="procs"):
            check_covers_pattern(s, self.pattern())
