"""Round-trip tests for schedule serialization."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from .checks import Transfer, checked_step, schedule_of, steps_of
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
        assert steps_of(restored) == steps_of(original)
        assert restored.name == original.name
        assert restored.nprocs == original.nprocs
        assert restored.exchange_order == original.exchange_order

    def test_file_roundtrip(self, tmp_path):
        sched = pairwise_exchange(8, 512)
        path = save_schedule(sched, tmp_path / "plans" / "pex.json")
        assert path.exists()
        assert steps_of(load_schedule(path)) == steps_of(sched)

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


# ----------------------------------------------------------------------
# The per-transfer decoder, kept as the oracle of the column decoder.
# ----------------------------------------------------------------------
def old_schedule_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-schedule":
        raise ScheduleError("not a serialized schedule")
    if doc.get("version") != 1:
        raise ScheduleError(
            f"unsupported schedule format version {doc.get('version')!r}"
        )

    def not_int(field, value):
        return ScheduleError(f"{field} must be an integer, got {value!r}")

    def transfer(step_no, index, fields):
        src, dst, nbytes, pack, unpack = values = tuple(fields)
        names = ("src", "dst", "nbytes", "pack_bytes", "unpack_bytes")
        for name, value in zip(names, values):
            if type(value) is not int:
                raise not_int(f"step {step_no} transfer {index} {name}", value)
        return Transfer(src, dst, nbytes, pack, unpack)

    try:
        steps = tuple(
            checked_step(
                [
                    transfer(step_no, index, fields)
                    for index, fields in enumerate(step, start=1)
                ]
            )
            for step_no, step in enumerate(doc["steps"], start=1)
        )
        nprocs = doc["nprocs"]
        if type(nprocs) is not int:
            raise not_int("nprocs", nprocs)
        return schedule_of(
            nprocs=nprocs,
            steps=steps,
            name=str(doc["name"]),
            exchange_order=str(doc["exchange_order"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


@st.composite
def documents(draw):
    """A valid schedule document: empty steps anywhere (the last one
    too), pack/unpack bytes, either exchange order."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    byte = st.integers(0, 2**40)
    steps = []
    for _ in range(draw(st.integers(0, 6))):
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
        steps.append(
            [
                [i, j, draw(byte), draw(st.sampled_from([0, draw(byte)])),
                 draw(st.sampled_from([0, draw(byte)]))]
                for i, j in chosen
            ]
        )
    return {
        "format": "repro-schedule",
        "version": 1,
        "name": draw(st.text(max_size=4)),
        "nprocs": n,
        "exchange_order": draw(st.sampled_from(sorted(_ORDERS))),
        "steps": steps,
    }


_ORDERS = {"lower_recv_first", "lower_send_first"}

#: Ways to break one part of a document, each (name, edit of a row
#: ``[step, index]`` or of the whole document). Edits compose: a row
#: edit applies to whatever an earlier edit left in the row (a string
#: field, four fields or fewer).
_ROW_EDITS = {
    "float": lambda row, k: row.__setitem__(
        k, (row[k] if type(row[k]) is int else 0) + 0.5
    ),
    "whole-float": lambda row, k: row.__setitem__(
        k, float(row[k] if type(row[k]) is int else 0)
    ),
    "bool": lambda row, k: row.__setitem__(k, True),
    "str": lambda row, k: row.__setitem__(k, str(row[k])),
    "4-fields": lambda row, k: row.pop(),
    "6-fields": lambda row, k: row.append(0),
    "too-big": lambda row, k: row.__setitem__(k, 2**63),
    "too-small": lambda row, k: row.__setitem__(k, -(2**63) - 1),
    "self": lambda row, k: row.__setitem__(1, row[0]),
    "negative": lambda row, k: row.__setitem__(
        min(2 + k % 3, len(row) - 1), -1
    ),
    "rank-range": lambda row, k: row.__setitem__(k % 2, 99),
    "rank-negative": lambda row, k: row.__setitem__(k % 2, -1),
}
_STEP_EDITS = {
    "duplicate": lambda steps, s: steps[s].append(copy.deepcopy(steps[s][0]))
    if steps[s] else None,
    "row-int": lambda steps, s: steps[s].append(5),
    "row-str": lambda steps, s: steps[s].append("abcde"),
    "row-none": lambda steps, s: steps[s].insert(0, None),
    "step-str": lambda steps, s: steps.__setitem__(s, ""),
    "step-dict": lambda steps, s: steps.__setitem__(s, {}),
    "step-int": lambda steps, s: steps.__setitem__(s, 7),
    "step-chars": lambda steps, s: steps.__setitem__(s, "ab"),
}
_DOC_EDITS = {
    "steps-str": lambda doc: doc.__setitem__("steps", ""),
    "steps-dict": lambda doc: doc.__setitem__("steps", {"": 1}),
    "steps-int": lambda doc: doc.__setitem__("steps", 5),
    "steps-none": lambda doc: doc.__setitem__("steps", None),
    "no-steps": lambda doc: doc.pop("steps", None),
    "nprocs-float": lambda doc: doc.__setitem__("nprocs", 4.0),
    "nprocs-bool": lambda doc: doc.__setitem__("nprocs", True),
    "nprocs-small": lambda doc: doc.__setitem__("nprocs", 1),
    "nprocs-huge": lambda doc: doc.__setitem__("nprocs", 2**70),
    "no-nprocs": lambda doc: doc.pop("nprocs", None),
    "no-name": lambda doc: doc.pop("name", None),
    "name-int": lambda doc: doc.__setitem__("name", 3),
    "no-order": lambda doc: doc.pop("exchange_order", None),
    "bad-order": lambda doc: doc.__setitem__("exchange_order", "sideways"),
}


def _outcome(decode, text):
    try:
        sched = decode(text)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return ("raised", type(exc), str(exc))
    return ("ok", sched, repr(sched), schedule_to_json(sched))


class TestColumnDecoderMatchesTheTransferDecoder:
    @given(doc=documents())
    @settings(max_examples=200, deadline=None)
    def test_valid_documents(self, doc):
        text = json.dumps(doc)
        new = schedule_from_json(text)
        old = old_schedule_from_json(text)
        assert new == old
        assert repr(new) == repr(old)
        assert new.nsteps == old.nsteps == len(doc["steps"])
        assert schedule_to_json(new) == schedule_to_json(old)
        assert schedule_to_json(new) == json.dumps(doc, separators=(",", ":"))

    def test_trailing_empty_steps_are_kept(self):
        doc = json.loads(schedule_to_json(pairwise_exchange(4, 64)))
        doc["steps"][1:1] = [[]]
        doc["steps"] += [[], []]
        text = json.dumps(doc, separators=(",", ":"))
        sched = schedule_from_json(text)
        assert sched.nsteps == len(doc["steps"])
        assert schedule_to_json(sched) == text
        assert sched == old_schedule_from_json(text)
        assert schedule_to_json(sched) == text

    @given(
        data=st.data(),
        doc=documents(),
        edits=st.lists(
            st.sampled_from(
                [("row", k) for k in sorted(_ROW_EDITS)]
                + [("step", k) for k in sorted(_STEP_EDITS)]
                + [("doc", k) for k in sorted(_DOC_EDITS)]
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents(self, data, doc, edits):
        """Same exception type and text, or the same schedule, for one
        or several errors anywhere in the document."""
        for kind, name in edits:
            steps = doc.get("steps")
            if kind == "doc":
                _DOC_EDITS[name](doc)
            elif type(steps) is list and steps:
                s = data.draw(st.integers(0, len(steps) - 1))
                if kind == "step" and type(steps[s]) is list:
                    _STEP_EDITS[name](steps, s)
                elif type(steps[s]) is list and steps[s]:
                    row = steps[s][data.draw(st.integers(0, len(steps[s]) - 1))]
                    if type(row) is list and len(row) >= 2:
                        k = data.draw(st.integers(0, len(row) - 1))
                        _ROW_EDITS[name](row, k)
        text = json.dumps(doc)
        new = _outcome(schedule_from_json, text)
        old = _outcome(old_schedule_from_json, text)
        assert new[0] == old[0]
        if new[0] == "raised":
            assert new[1:] == old[1:]
        else:
            assert new[1] == old[1] and new[2:] == old[2:]

    @pytest.mark.parametrize(
        "steps, expected",
        [
            ([[[0, 1, 8, 0, 0]], [[2, 2, 8, 0, 0]], [[0, 1.5, 8, 0, 0]]],
             "self-transfer at rank 2"),
            ([[[0, 1, 8, 0, 0], [0, 1.5, 8, 0, 0]], [[2, 2, 8, 0, 0]]],
             "step 1 transfer 2 dst must be an integer"),
            ([[[0, 1, 8, 0, 0], [0, 1, 9, 0, 0], [3, 3, 1, 0, 0]]],
             "self-transfer at rank 3"),
            ([[[0, 1, 8, 0, 0], [0, 1, 9, 0, 0]], [[0, 1, 2**64, 0, 0]]],
             "duplicate transfer 0->1 in step"),
            ([[[0, 1, 2**64, 0, 0]], [[1, 0, -1, 0, 0]]],
             "transfer nbytes 18446744073709551616 does not fit int64"),
            ([[[0, 9, 8, 0, 0]], [[1, 0, -1, 0, 0]]],
             "negative byte count in Transfer(src=1, dst=0, nbytes=-1, "
             "pack_bytes=0, unpack_bytes=0)"),
        ],
    )
    def test_first_error_in_document_order_wins(self, steps, expected):
        doc = {
            "format": "repro-schedule", "version": 1, "name": "x",
            "nprocs": 4, "exchange_order": "lower_recv_first", "steps": steps,
        }
        text = json.dumps(doc)
        with pytest.raises(ScheduleError) as new:
            schedule_from_json(text)
        with pytest.raises(ScheduleError) as old:
            old_schedule_from_json(text)
        assert str(new.value) == str(old.value)
        assert expected in str(new.value)
