"""Every demo runs to the end on the public API, with numpy's warnings and
Python's deprecations raised as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import twinsurf

_DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(_DEMOS) >= 3


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_warnings(demo):
    src = os.path.dirname(os.path.dirname(twinsurf.__file__))
    p = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout and not p.stderr, p.stderr
