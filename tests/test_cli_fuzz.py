"""A property over the whole CLI: whatever the flags and input files,
``run`` returns an exit code 0..3 and never raises.

The argv is drawn from the parser itself: every command, every action or
system (or a bad one), and any subset of the command's options with
valid, malformed, missing or extreme values.  The input files are 5..7^2
GFIELD files of one to three components on grids that differ between
files, so ``--in`` and ``--twin`` may not match.  A numpy RuntimeWarning
is an error in this suite, so a run that warns fails the property too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsurf.catalog import SURFACES
from twinsurf.cli import build_parser, run
from twinsurf.fields import GridDomain
from twinsurf.gfield import write_gfield

_FLOATS = ["0", "1", "-1", "0.5", "1.5707963267948966", "-0.6", "1e-300", "1e300",
           "700", "-709.7", "1000", "-1000", "nan", "inf", "-inf", "x", ""]
_INTS = ["0", "1", "-1", "2", "3", "200", "1000000000", "1.5", "x", ""]
_VALUES = {
    "grid": ["5,5", "7,6", "6,7", "9,9", "4,5", "1,5", "0,0", "-5,5", "5", "5,5,5", "a,b", ""],
    "domain": ["-1,-1,1,1", "1.5,-0.75,3,0.75", "0.5,-1,2,1", "1,1,-1,-1", "0,0,0,0",
               "nan,0,1,1", "0,0,inf,1", "-1e308,0,1e308,1", "0,0,1e-300,1e-300",
               "0,0,1", "a,b,c,d", "−1,−1,1,1"],
    "param": ["rho=1", "rho=0.8", "rho=0", "rho=-1", "rho=nan", "rho=1e300", "rho=x",
              "rho", "a1=0.3", "c0_1_re=1", "c0_0_im=0.5", "c1_1_re=1", "zz=1", "=1"],
    "basepoint": ["0,0", "2,2", "4,4", "6,5", "-1,0", "99,99", "0", "x,y"],
    "pair": ["2,3", "1,2", "3,1", "1,1", "4,2", "0,1", "1,9", "2", "x,y"],
    "name": list(SURFACES) + ["bogus", ""],
}


def _field(dom, values, n):
    X, Y = dom.meshgrid()
    return [values(X, Y) * (k + 1) for k in range(n)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input paths by role; the outputs go to paths no input uses."""
    d = tmp_path_factory.mktemp("cli_fuzz")
    inputs = []
    for nx, ny, n, values in [
        (5, 5, 1, lambda X, Y: np.zeros_like(X)),
        (5, 5, 1, lambda X, Y: (X * X + Y * Y) / 2),
        (7, 7, 1, lambda X, Y: 0.3 * X - 0.2 * Y),
        (6, 7, 2, lambda X, Y: 0.2 * (X * X - Y * Y)),
        (7, 5, 3, lambda X, Y: 0.1 * X * Y),
        (7, 6, 1, lambda X, Y: 0.4 * X**3 + 0.2 * Y**2),
    ]:
        path = str(d / f"in{len(inputs)}.gf")
        dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, nx, ny)
        write_gfield(path, dom, _field(dom, values, n))
        inputs.append(path)
    for name, grid in [("catenoid", "5,5"), ("helicoid", "7,6"), ("holomorphic", "6,6")]:
        path = str(d / f"{name}.gf")
        assert run(["catalog", "sample", "--name", name, "--grid", grid, "--out", path]) == 0
        inputs.append(path)
    bad = d / "bad.gf"
    bad.write_bytes(b"GFIELD 2\n5 5 1\n0 0 1 1\n" + bytes(8 * 4 * 5))  # short body
    inputs += [str(bad), str(d / "missing.gf"), str(d)]
    return {"in": inputs, "out": [str(d / "out.gf"), str(d / "report.json"), str(d)]}


def _value(draw, action, files):
    dest = action.dest
    if dest in ("inp", "twin", "boundary"):
        return draw(st.sampled_from(files["in"]))
    if dest in ("out", "report"):
        return draw(st.sampled_from(files["out"]))
    if action.choices:
        return draw(st.sampled_from(list(action.choices) + ["bogus"]))
    if dest in _VALUES:
        return draw(st.sampled_from(_VALUES[dest]))
    return draw(st.sampled_from(_INTS if action.type is int else _FLOATS))


@st.composite
def argvs(draw, files):
    commands = build_parser()._subparsers._group_actions[0].choices
    command = draw(st.sampled_from(sorted(commands)))
    argv = [command]
    options = []
    for action in commands[command]._actions:
        if not action.option_strings:  # action / system
            argv.append(draw(st.sampled_from(list(action.choices) + ["bogus"])))
        elif action.dest != "help":
            options.append(action)
    for action in draw(st.lists(st.sampled_from(options), max_size=6, unique_by=id)):
        flag = action.option_strings[0]
        for _ in range(2 if action.dest == "param" else 1):
            argv += [f"{flag}={_value(draw, action, files)}"]
    for action in options:  # required options, unless dropped
        if action.required and not any(a.startswith(action.option_strings[0] + "=") for a in argv):
            if draw(st.integers(0, 9)):
                argv += [f"{action.option_strings[0]}={_value(draw, action, files)}"]
    return argv


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_run_returns_an_exit_code_and_never_raises(files, data):
    argv = data.draw(argvs(files))
    assert run(argv) in (0, 1, 2, 3), argv
