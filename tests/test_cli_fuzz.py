"""Fuzz the CLI's argument specs: every bad input is one ``error:`` line.

For each command and each of its options the test draws an invalid
value (not a number, out of range, an unknown choice, a missing input
file); for each command it also draws an option that only another
command takes, or one of its own options with no value.  ``main`` must return 2 with exactly one stderr line and nothing
on stdout.  Every case is rejected before a simulation starts, so the
test stays at a few seconds.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import COMMANDS, OPTIONS, main

_WORD = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=8)
_NOT_A_NUMBER = _WORD.filter(lambda w: w not in ("inf", "nan", "infinity"))
_MISSING_FILE = _WORD.map(
    lambda w: os.path.join(tempfile.gettempdir(), "repro-cli-fuzz-missing", w)
)


def _ints(**bounds):
    return st.integers(**bounds).map(str)


def _floats(**bounds):
    return st.floats(allow_nan=False, **bounds).map(repr)


_NON_FINITE = st.sampled_from(["inf", "-inf", "nan"])

#: Invalid values per option name, by what the option declares.
_INVALID = {
    "nprocs": st.one_of(
        _NOT_A_NUMBER,
        _ints(max_value=1),
        _ints(min_value=3, max_value=64).filter(lambda n: int(n) & (int(n) - 1)),
    ),
    "nbytes": st.one_of(_NOT_A_NUMBER, _ints(max_value=-1)),
    "jobs": st.one_of(_NOT_A_NUMBER, _ints(max_value=-1)),
    "runs": st.one_of(_NOT_A_NUMBER, _ints(max_value=0)),
    "fault_seed": _NOT_A_NUMBER,
    "drop": _NOT_A_NUMBER,
    "interval": st.one_of(_NOT_A_NUMBER, _NON_FINITE, _floats(max_value=0.0)),
    "plan": _MISSING_FILE,
    "schedule": _MISSING_FILE,
    "trace": _MISSING_FILE,
    "check_file": _MISSING_FILE,
    "check": _MISSING_FILE,
}
for _name, (_, _spec) in OPTIONS.items():
    if "choices" in _spec:
        _INVALID[_name] = _WORD.filter(
            lambda w, choices=_spec["choices"]: w not in choices
        )

#: Options whose every value is accepted at parse time.
_FREE_FORM = {"quick", "csv", "straggler", "degrade", "delay", "out"}


def test_every_option_is_classified():
    # A new option must say how it can be wrong (or that it cannot).
    assert set(OPTIONS) == set(_INVALID) | _FREE_FORM
    assert not set(_INVALID) & _FREE_FORM


def _takes_value(name: str) -> bool:
    spec = OPTIONS[name][1]
    return spec.get("action") != "store_true" and spec.get("nargs") != "?"


def _assert_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    lines = err.getvalue().splitlines()
    assert status == 2, argv
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == "", argv


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command, spec in sorted(COMMANDS.items())
        for option in spec.options
        if option in _INVALID
    ],
)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_invalid_value_is_one_error_line(command, option, data):
    value = data.draw(_INVALID[option], label="value")
    _assert_one_error_line([command, OPTIONS[option][0], value])


def _foreign_or_bare(command: str):
    own = COMMANDS[command].options
    own_flags = {OPTIONS[name][0] for name in own}
    # Skip prefixes of the command's own flags: argparse would read
    # them as abbreviations.
    foreign = sorted(
        {flag for flag, _ in OPTIONS.values()
         if not any(mine.startswith(flag) for mine in own_flags)}
    )
    cases = [st.sampled_from(foreign).map(lambda flag: [flag, "1"])]
    bare = [OPTIONS[name][0] for name in own if _takes_value(name)]
    if bare:
        cases.append(st.sampled_from(bare).map(lambda flag: [flag]))
    return st.one_of(cases)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_foreign_or_bare_option_is_one_error_line(command, data):
    flags = data.draw(_foreign_or_bare(command), label="flags")
    _assert_one_error_line([command, *flags])


#: Flags that only the deleted ``serve-bench`` command took.
_REMOVED_FLAGS = ("--requests", "--corpus", "--skew", "--arrival", "--force")


@pytest.mark.parametrize("removed", ["serve-bench", *_REMOVED_FLAGS])
def test_removed_service_bench_surface_is_one_error_line(removed):
    # The command is unknown, and no command reads its flags any more.
    if removed == "serve-bench":
        _assert_one_error_line([removed])
        return
    assert removed not in {flag for flag, _ in OPTIONS.values()}
    for command in sorted(COMMANDS):
        _assert_one_error_line([command, removed, "1"])
