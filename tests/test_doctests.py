"""Doctests embedded in module docstrings stay correct, and DESIGN.md
names modules that exist."""

import doctest
import re
from pathlib import Path

import pytest

import repro
import repro.cmmd.program
import repro.machine.bandwidth
import repro.machine.params

MODULES = [
    repro.machine.params,
    repro.machine.bandwidth,
    repro.cmmd.program,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
    assert result.failed == 0


def test_design_tables_name_existing_modules():
    """Every module path in DESIGN.md's tables (``machine/params.py``,
    ``apps/*``, a package ``dir/``) exists under ``src/repro/``."""
    root = Path(repro.__file__).parent
    design = (root.parents[1] / "DESIGN.md").read_text()
    packages = {p.name for p in root.iterdir() if p.is_dir()}
    paths = {
        token
        for line in design.splitlines()
        if line.startswith("|")
        for token in re.findall(r"`([^`]+)`", line)
        if token.split("/")[0] in packages
        and re.fullmatch(r"[\w/]+(\.py|/\*|/)", token)
    }
    assert len(paths) > 30
    missing = sorted(p for p in paths if not any(root.glob(p.rstrip("/"))))
    assert missing == []
