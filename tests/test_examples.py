"""Smoke tests: every example script compiles, runs and prints."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = ("broadcast_tuning.py", "fft2d_transpose.py", "irregular_cfd.py", "quickstart.py")


def test_examples_are_the_listed_scripts():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == list(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_examples_compile(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
