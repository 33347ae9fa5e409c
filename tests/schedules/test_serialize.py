"""Round-trip tests for schedule serialization."""

import json

import pytest
from hypothesis import given, settings

from repro.schedules import (
    ScheduleError,
    balanced_schedule,
    greedy_schedule,
    lint_schedule,
    load_schedule,
    paper_pattern_P,
    pairwise_exchange,
    recursive_exchange,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
)
from repro.schedules.irregular import IRREGULAR_ALGORITHMS

from .test_properties import patterns


class TestRoundTrip:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: pairwise_exchange(8, 256),
            lambda: recursive_exchange(8, 64),  # carries pack/unpack bytes
            lambda: greedy_schedule(paper_pattern_P().scaled(128)),
            lambda: balanced_schedule(paper_pattern_P()),
        ],
    )
    def test_json_roundtrip_exact(self, build):
        original = build()
        restored = schedule_from_json(schedule_to_json(original))
        assert restored.steps == original.steps
        assert restored.name == original.name
        assert restored.nprocs == original.nprocs
        assert restored.exchange_order == original.exchange_order

    def test_file_roundtrip(self, tmp_path):
        sched = pairwise_exchange(8, 512)
        path = save_schedule(sched, tmp_path / "plans" / "pex.json")
        assert path.exists()
        assert load_schedule(path).steps == sched.steps

    def test_replay_gives_identical_timing(self, tmp_path):
        from repro.machine import CM5Params, MachineConfig
        from repro.schedules import execute_schedule

        cfg = MachineConfig(8, CM5Params(routing_jitter=0.0))
        sched = greedy_schedule(paper_pattern_P().scaled(256))
        path = save_schedule(sched, tmp_path / "gs.json")
        t_orig = execute_schedule(sched, cfg).time
        t_replay = execute_schedule(load_schedule(path), cfg).time
        assert t_replay == t_orig


class TestValidation:
    def test_garbage_rejected(self):
        with pytest.raises(ScheduleError, match="JSON"):
            schedule_from_json("{nope")

    def test_wrong_format_rejected(self):
        with pytest.raises(ScheduleError, match="not a serialized"):
            schedule_from_json('{"format": "something-else"}')

    def test_wrong_version_rejected(self):
        with pytest.raises(ScheduleError, match="version"):
            schedule_from_json(
                '{"format": "repro-schedule", "version": 99}'
            )

    def test_malformed_steps_rejected(self):
        with pytest.raises(ScheduleError, match="malformed"):
            schedule_from_json(
                '{"format": "repro-schedule", "version": 1, "name": "x",'
                ' "nprocs": 4, "exchange_order": "lower_recv_first",'
                ' "steps": [[[0]]]}'
            )

    def test_invalid_transfer_rejected(self):
        # Self-transfer inside an otherwise well-formed document.
        with pytest.raises(ScheduleError):
            schedule_from_json(
                '{"format": "repro-schedule", "version": 1, "name": "x",'
                ' "nprocs": 4, "exchange_order": "lower_recv_first",'
                ' "steps": [[[1, 1, 8, 0, 0]]]}'
            )


#: Schedule documents whose numbers are not plain JSON integers, each
#: of which ``int()`` would once have truncated into a different,
#: lint-clean schedule.
_NON_INTEGER = {
    "float-nprocs": (lambda doc: doc.update(nprocs=4.9), "nprocs"),
    "float-ranks": (
        lambda doc: doc["steps"][0].__setitem__(0, [0.7, 1.2, 64, 0, 0]),
        "step 1 transfer 1 src",
    ),
    "bool-nbytes": (
        lambda doc: doc["steps"][0][0].__setitem__(2, True),
        "step 1 transfer 1 nbytes",
    ),
    "float-nbytes": (
        lambda doc: doc["steps"][1][0].__setitem__(2, 64.0),
        "step 2 transfer 1 nbytes",
    ),
}


def non_integer_document(case: str) -> str:
    doc = json.loads(schedule_to_json(pairwise_exchange(4, 64)))
    _NON_INTEGER[case][0](doc)
    return json.dumps(doc)


class TestNonIntegerFields:
    @pytest.mark.parametrize("case", sorted(_NON_INTEGER))
    def test_rejected_naming_the_field(self, case):
        field = _NON_INTEGER[case][1]
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            schedule_from_json(non_integer_document(case))


class TestSerializeProperties:
    """Byte-identity: serialization is a fixed point after one round trip.

    The schedule store's content addressing and the service's
    byte-identical-hit guarantee both assume that deserializing a stored
    document and serializing it again reproduces the stored bytes
    exactly — for every algorithm and any pattern.
    """

    @pytest.mark.parametrize("name", sorted(IRREGULAR_ALGORITHMS))
    @given(pattern=patterns())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_byte_identity(self, name, pattern):
        builder = IRREGULAR_ALGORITHMS[name]
        first = schedule_to_json(builder(pattern))
        restored = schedule_from_json(first)
        assert schedule_to_json(restored) == first

    @pytest.mark.parametrize("name", sorted(IRREGULAR_ALGORITHMS))
    @given(pattern=patterns())
    @settings(max_examples=25, deadline=None)
    def test_reloaded_schedule_passes_linter(self, name, pattern):
        builder = IRREGULAR_ALGORITHMS[name]
        restored = schedule_from_json(schedule_to_json(builder(pattern)))
        assert lint_schedule(restored, pattern).ok
