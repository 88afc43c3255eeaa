import json
import os
import subprocess
import sys

import numpy as np
import pytest

import twinsurf
from twinsurf import conformal, fields, gauss, systems
from twinsurf.cli import run
from twinsurf.fields import GridDomain
from twinsurf.gfield import read_gfield, read_heightmap, write_gfield, write_heightmap
from twinsurf.twin import twin_forward

from conftest import jorgens_trace_case, same_bits


@pytest.fixture
def catenoid_file(tmp_path):
    path = str(tmp_path / "cat.gf")
    code = run(
        [
            "catalog", "sample", "--name", "catenoid",
            "--domain", "1.5,-0.75,3,0.75", "--grid", "65,33", "--out", path,
        ]
    )
    assert code == 0
    return path


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "catenoid" in names and "scherk" in names


def test_catalog_sample_writes_gfield(catenoid_file):
    dom, comps = read_gfield(catenoid_file)
    assert (dom.nx, dom.ny) == (65, 33)
    assert len(comps) == 1


def test_residual_report(catenoid_file, capsys):
    assert run(["residual", "--system", "minimal", "--in", catenoid_file]) == 0
    out = _json_out(capsys)
    assert out["op"] == "minimal_residual"
    assert out["max_abs"] <= 50 * (1.5 / 64) ** 2


def test_twin_forward_roundtrip(catenoid_file, tmp_path, capsys):
    twin_path = str(tmp_path / "twin.gf")
    code = run(["twin", "forward", "--in", catenoid_file, "--out", twin_path])
    assert code == 0
    report = _json_out(capsys)
    assert report["c2_residual"] <= 5e-3
    g = read_heightmap(twin_path)
    assert g.n == 1


def test_twin_forward_rejects_non_closed(tmp_path, capsys):
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 33, 33)
    X, _ = dom.meshgrid()
    path = str(tmp_path / "cube.gf")
    write_gfield(path, dom, [X**3])
    assert run(["twin", "forward", "--in", path]) == 2
    assert "NOT_CLOSED" in capsys.readouterr().err


def test_jorgens_refuses_a_height_read_as_a_potential(catenoid_file, capsys):
    # a catalog height is no unimodular-Hessian potential: its max
    # |det D^2 F - 1| is O(1), far above the grid's tolerance
    assert run(["gauss", "jorgens", "--in", catenoid_file]) == 2
    assert capsys.readouterr().err.startswith("NOT_UNIMODULAR: max |det D^2 F - 1|")


@pytest.mark.parametrize("potential", ["zero", "cubic"])
def test_jorgens_refuses_a_trace_that_vanishes_or_changes_sign(tmp_path, capsys, potential):
    # the unimodular check passes both on 7^2 (test_gauss): the trace refuses them
    F, nodes = jorgens_trace_case(potential)
    path, out = str(tmp_path / "F.gf"), str(tmp_path / "z.gf")
    write_gfield(path, F.domain, [F.values])
    assert run(["gauss", "jorgens", "--in", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("SIGN_CHANGE: ")
    assert f"first offending nodes (iy, ix): {nodes[:8].tolist()})" in err
    assert not os.path.exists(out)


def test_sl_lift_and_detect_angle(catenoid_file, tmp_path, capsys):
    lift_path = str(tmp_path / "lift.gf")
    assert run(["sl", "lift", "--in", catenoid_file, "--out", lift_path]) == 0
    report = _json_out(capsys)
    # file inputs carry no gradient fields, so one-sided boundary stencils
    # dominate this diagnostic; the interior identity is tested in test_slag
    assert report["hessian_det_residual"] <= 0.1
    _, comps = read_gfield(lift_path)
    assert len(comps) == 1  # h alone: M and N are its gradient
    assert run(["sl", "detect-angle", "--in", lift_path, "--signature", "euclidean"]) == 0
    out = _json_out(capsys)
    assert out["theta"] == pytest.approx(np.pi / 2, abs=1e-2)


def test_sl_detect_angle_defaults_to_euclidean_mode(tmp_path, capsys):
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    path = str(tmp_path / "h.gf")
    write_gfield(path, dom, [(X * X + Y * Y) / 2])
    assert run(["sl", "detect-angle", "--in", path]) == 0
    out = _json_out(capsys)
    assert out["mode"] == "euclidean"
    assert out["theta"] == pytest.approx(np.pi / 2)
    assert run(["sl", "detect-angle", "--in", path, "--signature", "euclidean"]) == 0
    assert _json_out(capsys) == out
    # --mode names rotate's standard|reverse alone
    assert run(["sl", "detect-angle", "--in", path, "--mode", "split"]) == 1


def test_sl_rotate_defaults_to_standard_mode(catenoid_file, tmp_path):
    paths = [str(tmp_path / "default.gf"), str(tmp_path / "standard.gf")]
    assert run(["sl", "rotate", "--in", catenoid_file, "--out", paths[0]]) == 0
    argv = ["sl", "rotate", "--in", catenoid_file, "--mode", "standard"]
    assert run(argv + ["--out", paths[1]]) == 0
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_sl_rotate_rejects_bad_params(catenoid_file, capsys):
    # a NaN coefficient violates the constraint too
    for l1, l2 in (("1", "1"), ("nan", "1"), ("0", "nan")):
        code = run(
            [
                "sl", "rotate", "--in", catenoid_file,
                "--lambda1", l1, "--lambda2", l2, "--epsilon", "1",
            ]
        )
        assert code == 2
        assert "PARAM_CONSTRAINT_VIOLATION" in capsys.readouterr().err


def test_gauss_quadric(catenoid_file, capsys):
    assert run(["gauss", "quadric", "--in", catenoid_file]) == 0
    out = _json_out(capsys)
    assert out["quadric_residual"] <= 1e-10


def test_solve_minimal_from_boundary(catenoid_file, tmp_path, capsys):
    out_path = str(tmp_path / "solved.gf")
    code = run(
        ["solve", "minimal", "--boundary", catenoid_file, "--out", out_path]
    )
    assert code == 0
    solved = read_heightmap(out_path)
    target = read_heightmap(catenoid_file)
    err = np.abs(
        (solved.components[0] - target.components[0])[1:-1, 1:-1]
    ).max()
    assert err <= 2e-3


def test_verify_all_passes_on_scherk(capsys):
    code = run(["verify-all", "--name", "scherk", "--grid", "33,33"])
    assert code == 0
    report = _json_out(capsys)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"quadric_residual", "minimal_residual", "twin_c2"} <= names
    for c in report["checks"]:
        assert set(c) == {"name", "value", "tol", "pass"}


def test_verify_all_fails_with_exit_3(tmp_path, capsys):
    code = run(
        ["verify-all", "--name", "scherk", "--grid", "33,33", "--tol", "1e-14"]
    )
    assert code == 3
    report = _json_out(capsys)
    assert report["pass"] is False


@pytest.mark.parametrize("name", ["lagrangian_catenoid", "quadratic_gradient"])
def test_verify_all_fails_where_the_twin_cannot_be_built(name, capsys):
    # ||J|| >= 1 at the default domain: the twin, lift and chart rows are
    # not computed, and the report says why instead of passing
    assert run(["verify-all", "--name", name, "--grid", "17,17"]) == 3
    report = _json_out(capsys)
    assert report["pass"] is False
    last = report["checks"][-1]
    assert last["name"] == "area_angle_violations" and last["pass"] is False
    assert last["value"] > 0 and last["tol"] == 0


def test_missing_file_is_validation_error(capsys):
    assert run(["residual", "--system", "minimal", "--in", "/no/such.gf"]) == 1
    assert "VALIDATION" in capsys.readouterr().err


def test_cli_import_leaves_scipy_integrate_out():
    # no scipy module at all: no command needs it
    for module in ("twinsurf", "twinsurf.cli"):
        code = (
            "import sys\n"
            f"import {module}\n"
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)\n"
        )
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
        assert p.returncode == 0, f"import {module} loaded: {p.stderr.decode()}"


_SCIPY_FREE = [
    ["catalog", "sample", "--name", "catenoid", "--grid", "33,33", "--out", "{gf}"],
    ["verify-all", "--name", "catenoid", "--grid", "33,33"],
    ["twin", "forward", "--in", "{gf}"],
    ["sl", "lift", "--in", "{gf}"],
    ["chart", "weierstrass", "--in", "{gf}"],
    ["chart", "resample", "--in", "{gf}", "--out", "{gf}.xi"],
    ["chart", "build", "--in", "{gf}"],
    ["chart", "nullcurve", "--in", "{gf}"],
    ["gauss", "planarity", "--in", "{gf}"],
    ["residual", "--system", "minimal", "--in", "{gf}"],
    ["solve", "minimal", "--boundary", "{gf}"],
    ["solve", "maximal", "--boundary", "{gf}"],
]


def test_commands_run_with_scipy_blocked(tmp_path):
    gf = str(tmp_path / "c.gf")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from twinsurf.cli import run\n"
        f"argvs = {_SCIPY_FREE!r}\n"
        f"for argv in [[a.format(gf={gf!r}) for a in argv] for argv in argvs]:\n"
        "    code = run(argv)\n"
        "    if code:\n"
        "        sys.exit(f'{argv} exited {code}')\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr


def test_bad_arguments_exit_1():
    assert run(["frobnicate"]) == 1
    assert run(["catalog", "sample", "--name", "catenoid", "--threads", "0"]) == 1


@pytest.mark.parametrize("message", ["Unable to allocate 14.6 TiB for an array", ""])
def test_oversized_input_exits_1_without_traceback(tmp_path, capsys, monkeypatch, message):
    # a --param such as c0_1000000000000_re=1 asks numpy for TiBs at once;
    # the refusal is stubbed here so that nothing is allocated
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(twinsurf.catalog, "make_entry", refuse)  # default_domain's and make_surface's
    argv = ["catalog", "sample", "--name", "holomorphic", "--grid", "9,9"]
    code = run(argv + ["--param", "c0_1000000000000_re=1", "--out", str(tmp_path / "x.gf")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"VALIDATION: {message or 'MemoryError'}\n"
    assert not os.path.exists(tmp_path / "x.gf")


def test_unicode_minus_accepted_in_domain(tmp_path):
    path = str(tmp_path / "cat.gf")
    code = run(
        [
            "catalog", "sample", "--name", "catenoid",
            "--domain", "1.5,−0.75,3,0.75", "--grid", "65,33", "--out", path,
        ]
    )
    assert code == 0


def _sample(path, grid):
    code = run(
        [
            "catalog", "sample", "--name", "catenoid",
            "--domain", "1.5,-0.75,3,0.75", "--grid", grid, "--out", path,
        ]
    )
    assert code == 0
    return path


@pytest.mark.parametrize("damage", ["extra_bytes", "short_row"])
def test_solve_malformed_boundary_exits_1(tmp_path, capsys, damage):
    path = _sample(str(tmp_path / "cat17.gf"), "17,17")
    with open(path, "rb") as fh:
        data = fh.read()
    # a value too many, or one missing from a row: the body is 8 bytes off
    data = data + bytes(8) if damage == "extra_bytes" else data[:-800] + data[-792:]
    with open(path, "wb") as fh:
        fh.write(data)
    assert run(["solve", "minimal", "--boundary", path]) == 1
    assert "VALIDATION" in capsys.readouterr().err


@pytest.mark.parametrize("system", ["minimal", "maximal"])
def test_solve_zero_component_boundary_exits_1(tmp_path, capsys, system):
    path = tmp_path / "zero.gf"
    path.write_bytes(b"GFIELD 2\n5 5 0\n0 0 1 1\n")
    assert run(["solve", system, "--boundary", str(path)]) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("VALIDATION:") and "Traceback" not in err


@pytest.mark.parametrize("max_outer", ["0", "-1"])
def test_solve_rejects_non_positive_max_outer(tmp_path, capsys, max_outer):
    path = _sample(str(tmp_path / "cat17.gf"), "17,17")
    code = run(["solve", "minimal", "--boundary", path, "--max-outer", max_outer])
    assert code == 1
    assert "max_outer" in capsys.readouterr().err


def test_twin_verify_rejects_mismatched_grids(tmp_path, capsys):
    coarse = _sample(str(tmp_path / "cat17.gf"), "17,17")
    fine = _sample(str(tmp_path / "cat33.gf"), "33,33")
    assert run(["twin", "verify", "--in", coarse, "--twin", fine]) == 1
    assert "VALIDATION" in capsys.readouterr().err


def test_twin_verify_honours_tol_zero(tmp_path, capsys):
    # the holomorphic pair passes at the default tol; tol 0 must not fall
    # back to it
    path = str(tmp_path / "holo.gf")
    twin_path = str(tmp_path / "holo_twin.gf")
    args = ["catalog", "sample", "--name", "holomorphic", "--grid", "33,33"]
    assert run(args + ["--out", path]) == 0
    assert run(["twin", "forward", "--in", path, "--out", twin_path]) == 0
    assert run(["twin", "verify", "--in", path, "--twin", twin_path]) == 0
    capsys.readouterr()
    code = run(["twin", "verify", "--in", path, "--twin", twin_path, "--tol", "0"])
    assert code == 2
    assert "tol 0.000e+00" in capsys.readouterr().err


def _write_field(path, values_of_xy):
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 17, 17)
    write_gfield(path, dom, [values_of_xy(*dom.meshgrid())])
    return path


def test_twin_verify_non_spacelike_side_fails_before_dividing(tmp_path):
    # |grad g| = 2 everywhere, so omega = 0 on the maximal side; one error
    # line and no numpy warning on stderr
    f = _write_field(str(tmp_path / "f.gf"), lambda X, Y: 0.1 * X + 0.2 * Y)
    g = _write_field(str(tmp_path / "g.gf"), lambda X, Y: 2.0 * X)
    src = os.path.dirname(os.path.dirname(twinsurf.__file__))
    p = subprocess.run(
        [sys.executable, "-m", "twinsurf.cli", "twin", "verify", "--in", f, "--twin", g],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert p.returncode == 2
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("NOT_SPACELIKE:"), p.stderr


def test_maximal_residual_of_an_everywhere_timelike_map_exits_1(tmp_path):
    # |grad g| = 2 everywhere leaves no node to aggregate: one error line,
    # no traceback
    g = _write_field(str(tmp_path / "g.gf"), lambda X, Y: 2.0 * X)
    src = os.path.dirname(os.path.dirname(twinsurf.__file__))
    p = subprocess.run(
        [sys.executable, "-m", "twinsurf.cli", "residual", "--system", "maximal", "--in", g],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert p.returncode == 1 and not p.stdout
    assert p.stderr == "VALIDATION: no interior nodes left to aggregate\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["twin", "forward", "--in", "{gf}"],
        ["twin", "verify", "--in", "{gf}", "--twin", "{gf}"],
        ["sl", "lift", "--in", "{gf}"],
        ["chart", "build", "--in", "{gf}"],
        ["verify-all", "--name", "catenoid", "--grid", "17,17"],
    ],
)
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, argv, tol):
    # the input is not minimal: against NaN or inf every `worst > tol`
    # check would pass, against -1 every one would fail
    gf = _write_field(str(tmp_path / "cubic.gf"), lambda X, Y: 0.4 * X**3 + 0.2 * Y**2)
    assert run([a.format(gf=gf) for a in argv] + [f"--tol={tol}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("VALIDATION:"), err
    assert "tolerance must be finite and >= 0" in err[0]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["twin", "forward"], "bump"),
        (["twin", "forward"], "quadratic_gradient"),
        (["sl", "lift"], "bump"),
        (["chart", "build"], "bump"),
        (["chart", "weierstrass"], "bump"),
    ],
)
def test_a_bad_basepoint_precedes_every_verdict_after_the_reading(tmp_path, capsys, argv, name):
    # the bump is spacelike but not minimal, and the quadratic gradient
    # graph has ||J|| >= 1: from a good basepoint each command reaches a
    # verdict (exit 2), from a bad one it stops at the basepoint first
    gf = str(tmp_path / f"{name}.gf")
    if name == "bump":
        dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 33, 33)
        X, Y = dom.meshgrid()
        write_gfield(gf, dom, [0.3 * np.exp(-10.0 * (X * X + Y * Y))])
    else:
        assert run(["catalog", "sample", "--name", name, "--grid", "17,17", "--out", gf]) == 0
    assert run([*argv, "--in", gf]) == 2
    capsys.readouterr()
    assert run([*argv, "--in", gf, "--basepoint", "99,99"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("VALIDATION:") and "basepoint" in err[0], err


@pytest.mark.parametrize(
    "argv",
    [
        ["--theta=inf"],
        ["--theta=nan"],
        ["--theta=-inf"],
        ["--signature", "split", "--theta=1000"],
        ["--signature", "split", "--theta=-1000"],
    ],
)
def test_sl_residual_rejects_theta_with_non_finite_coefficients(tmp_path, capsys, argv):
    # numpy warned, then the report failed as non-finite; now one VALIDATION line
    gf = _write_field(str(tmp_path / "quad.gf"), lambda X, Y: (X * X + Y * Y) / 2)
    assert run(["sl", "residual", "--in", gf] + argv) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("VALIDATION: theta") and len(err.splitlines()) == 1, err


_SAMPLE = ["catalog", "sample", "--name"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_SAMPLE, "catenoid", "--param", "rho=abc", "--out", "{dir}/x.gf"],
        [*_SAMPLE, "catenoid", "--param", "rho=0", "--out", "{dir}/x.gf"],
        [*_SAMPLE, "plane", "--param", "zz=1", "--out", "{dir}/x.gf"],
        [*_SAMPLE, "holomorphic", "--param", "c0_1_foo=1", "--out", "{dir}/x.gf"],
        [*_SAMPLE, "catenoid", "--grid", "17,17"],  # no --out
        [*_SAMPLE, "catenoid", "--grid", "17,17", "--out", "{dir}"],
        ["gauss", "fit", "--in", "{gf}", "--pair", "2"],
        ["sl", "rotate", "--in", "{gf}"],  # no --out
        ["residual", "--system", "minimal", "--in", "{dir}"],
        ["residual", "--system", "minimal", "--in", "{binary}"],
        ["gauss", "planarity", "--in", "{inf_dx}"],
        ["verify-all", "--name", "plane", "--grid", "17,17", "--domain", "0,0,1e308,1e308"],
        ["twin", "verify", "--in", "{gf}"],  # no --twin
    ],
)
def test_bad_input_exits_1_with_validation(tmp_path, capsys, argv):
    # the exit-code contract: bad input is exit 1 with VALIDATION, never a traceback
    gf = _sample(str(tmp_path / "cat17.gf"), "17,17")
    binary = tmp_path / "binary.gf"
    binary.write_bytes(b"GFIELD\xff 1\n\xfe\xfe\n")
    inf_dx = tmp_path / "inf_dx.gf"
    inf_dx.write_bytes(b"GFIELD 2\n5 5 1\n0 0 inf 1\n" + bytes(8 * 5 * 5))
    paths = {"dir": tmp_path, "gf": gf, "binary": binary, "inf_dx": inf_dx}
    capsys.readouterr()
    assert run([a.format(**paths) for a in argv]) == 1
    assert "VALIDATION" in capsys.readouterr().err


def test_chart_actions_match_library(catenoid_file, tmp_path, capsys):
    f = read_heightmap(catenoid_file)
    chart = conformal.build_chart(f)
    assert run(["chart", "build", "--in", catenoid_file]) == 0
    assert _json_out(capsys)["J_psi_min"] == float(chart.J_psi.values.min())

    resampled = str(tmp_path / "resampled.gf")
    expected = str(tmp_path / "expected.gf")
    assert run(["chart", "resample", "--in", catenoid_file, "--out", resampled]) == 0
    write_heightmap(expected, conformal.resample_to_chart(chart, f))
    assert open(resampled, "rb").read() == open(expected, "rb").read()

    assert run(["chart", "nullcurve", "--in", catenoid_file]) == 0
    nc = conformal.null_curve(f, chart)
    assert _json_out(capsys) == {
        "holomorphy_residual": nc["holomorphy_residual"],
        "nullity_residual": nc["nullity_residual"],
        "signature": "euclidean",
    }
    # f's split nullity checks no identity, so the chart takes no --signature
    assert run(["chart", "nullcurve", "--in", catenoid_file, "--signature", "split"]) == 1

    assert run(["chart", "weierstrass", "--in", catenoid_file]) == 0
    pair = twin_forward(f)
    assert _json_out(capsys) == conformal.verify_weierstrass_twin(pair, chart)


def test_chart_null_curves_skip_inversion(catenoid_file, tmp_path, monkeypatch):
    def no_inversion(*args):
        raise AssertionError("chart inverted")

    monkeypatch.setattr(conformal, "_invert_chart", no_inversion)
    assert run(["chart", "nullcurve", "--in", catenoid_file]) == 0
    assert run(["chart", "weierstrass", "--in", catenoid_file]) == 0
    out = str(tmp_path / "x.gf")
    with pytest.raises(AssertionError):  # the patch is live: resample still inverts
        run(["chart", "resample", "--in", catenoid_file, "--out", out])


@pytest.mark.parametrize("action", ["nullcurve", "weierstrass"])
@pytest.mark.parametrize("n", [5, 6])
def test_chart_null_curve_on_tiny_grid_exits_1(tmp_path, capsys, action, n):
    path = _sample(str(tmp_path / "tiny.gf"), f"{n},{n}")
    capsys.readouterr()
    assert run(["chart", action, "--in", path]) == 1
    err = capsys.readouterr().err
    assert "VALIDATION" in err and "7 nodes per axis" in err and "Traceback" not in err


@pytest.mark.parametrize("grid, code", [("5,9", 1), ("9,5", 1), ("6,6", 0)])
def test_chart_resample_grid_size(tmp_path, capsys, grid, code):
    # the target grid drops _MARGIN_CELLS rings on each side and needs two
    # nodes left per axis: too few is a validation error, not a missing image
    path = _sample(str(tmp_path / "small.gf"), grid)
    capsys.readouterr()
    assert run(["chart", "resample", "--in", path, "--out", path + ".xi"]) == code
    err = capsys.readouterr().err
    if code:
        assert "VALIDATION" in err and "6 nodes per axis" in err and "Traceback" not in err


def _count_calls(monkeypatch, names):
    """Count calls of each named twinsurf function in every module binding it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(twinsurf, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("twinsurf") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def _count_residuals(monkeypatch):
    """Count the residual fields taken, by signature, public or for a reading."""
    built = {}
    original = systems._report

    def counted(h, signature, *args, **kwargs):
        built[signature] = built.get(signature, 0) + 1
        return original(h, signature, *args, **kwargs)

    monkeypatch.setattr(systems, "_report", counted)
    return built


def test_verify_all_shares_the_residual_and_the_potentials(monkeypatch, capsys):
    built = _count_residuals(monkeypatch)
    calls = _count_calls(monkeypatch, ("integrate_exact_form",))
    assert run(["verify-all", "--name", "catenoid", "--grid", "65,65"]) == 0
    # one residual per side (the divergence row reads f's); the twin and
    # its involution, then M, N and the lift's h
    assert built == {"euclidean": 1, "split": 1}
    assert calls == {"integrate_exact_form": 5}


def test_verify_all_takes_the_jacobian_data_once_per_map(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ("jacobian_data",))
    assert run(["verify-all", "--name", "catenoid", "--grid", "65,65"]) == 0
    # the surface (its area-angle check and its twin), the twin's raw
    # values for c2, the twin's twin in the involution
    assert calls == {"jacobian_data": 3}


def _count_first_derivatives(monkeypatch):
    """Count the first-derivative stencil passes of ``diff_x``/``diff_y``."""
    calls = {"_diff1": 0}
    original = fields._diff1

    def counted(*args):
        calls["_diff1"] += 1
        return original(*args)

    monkeypatch.setattr(fields, "_diff1", counted)
    return calls


@pytest.mark.parametrize("name, first_derivatives", [("catenoid", 20), ("holomorphic", 30)])
def test_verify_all_judges_each_form_once(name, first_derivatives, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ("closedness_residual_field",))
    diffs = _count_first_derivatives(monkeypatch)
    assert run(["verify-all", "--name", name, "--grid", "65,65"]) == 0
    # f's closedness identities once, for their row and the potentials, and
    # each side's divergence form once, for f's row, the twin and its
    # involution.  Per component: 3 passes in each side's residual and 2 in
    # its divergence form; then 4 in the identities, 4 for the lift's
    # M_y, N_x, M_x, N_y and 2 for its Hessian (28 and 40, and 7 and 9
    # closedness_residual_field calls, when the integrator judged each form)
    assert calls == {"closedness_residual_field": 2}
    assert diffs == {"_diff1": first_derivatives}


@pytest.mark.parametrize("name, first_derivatives", [("catenoid", 17), ("holomorphic", 30)])
def test_the_chart_item_judges_each_form_once(name, first_derivatives, monkeypatch):
    f = twinsurf.make_surface(name, None, twinsurf.default_domain(name, None, 65, 65))
    calls = _count_calls(monkeypatch, ("closedness_residual_field",))
    diffs = _count_first_derivatives(monkeypatch)
    twin_forward(f)
    conformal.build_chart(f)
    # only the chart's potentials take the identities; the twin judges its
    # gradients by each side's divergence form, in as many passes as the
    # integrator took (4 and 6 closedness_residual_field calls then)
    assert calls == {"closedness_residual_field": 2}
    assert diffs == {"_diff1": first_derivatives}


@pytest.mark.parametrize("name", ["catenoid", "holomorphic"])
def test_verify_all_takes_the_surfaces_metric_from_its_reading(name, monkeypatch, capsys):
    rows = []
    original = fields.first_fundamental_form

    def counted(gradients, *args):
        rows.append(len(gradients[0][0]))
        return original(gradients, *args)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("twinsurf") and getattr(mod, "first_fundamental_form", None) is original:
            monkeypatch.setattr(mod, "first_fundamental_form", counted)
    assert run(["verify-all", "--name", name, "--grid", "65,65"]) == 0
    # the reading of f (its divergence and closedness rows read it too),
    # the raw twin and the involution's source on the whole grid; the
    # Gauss map takes each row block's own
    blocks = [min(gauss._BLOCK_ROWS, 65 - r0) for r0 in range(0, 65, gauss._BLOCK_ROWS)]
    assert sorted(rows) == sorted([65, 65, 65] + blocks)


def test_closedness_reads_the_surface_once(catenoid_file, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ("first_fundamental_form",))
    assert run(["residual", "--system", "closedness", "--in", catenoid_file]) == 0
    assert calls == {"first_fundamental_form": 1}


def test_chart_resample_takes_one_metric(catenoid_file, tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, ("first_fundamental_form",))
    out = str(tmp_path / "xi.gf")
    assert run(["chart", "resample", "--in", catenoid_file, "--out", out]) == 0
    # the reading's; Newton inverts DPsi differenced from the chart's M, N
    assert calls == {"first_fundamental_form": 1}


def test_one_reading_feeds_the_twin_the_lift_and_the_chart(monkeypatch):
    f = twinsurf.make_surface("catenoid", None, twinsurf.default_domain("catenoid", {}, 33, 33))
    built = _count_residuals(monkeypatch)
    calls = _count_calls(monkeypatch, ("jacobian_data", "integrate_exact_form"))
    reading = twinsurf.read_surface(f)
    twin_forward(reading)
    twinsurf.sl_lift(reading)
    conformal.build_chart(reading)
    # one residual per side: f's reading and the twin's in its involution;
    # jacobian_data: f, the raw twin and the involution's source; integrals:
    # the twin, the involution, then M and N once for the lift and the
    # chart, and the lift's h
    assert built == {"euclidean": 1, "split": 1}
    assert calls == {"jacobian_data": 3, "integrate_exact_form": 5}


def test_chart_weierstrass_reads_the_surface_once(catenoid_file, monkeypatch, capsys):
    built = _count_residuals(monkeypatch)
    assert run(["chart", "weierstrass", "--in", catenoid_file]) == 0
    # one reading of f for the chart and the twin, one of the twin in its involution
    assert built == {"euclidean": 1, "split": 1}


def test_verify_all_matches_the_public_constructions():
    f = twinsurf.make_surface("helicoid", None, twinsurf.default_domain("helicoid", {}, 65, 65))
    value = {name: v for name, v, _ in twinsurf.verify_surface(f)}
    pair = twin_forward(f)
    lift = twinsurf.sl_lift(f)
    expected = {
        "twin_c1": pair.diagnostics.c1_residual,
        "twin_c4": pair.diagnostics.c4_residual,
        "twin_involution": pair.diagnostics.involution_residual,
        "twin_maximal_residual": twinsurf.maximal_residual(pair.g).max_abs("scaled"),
        "lift_hessian_det": lift.hessian_det_residual,
        "lift_area_preservation": lift.area_preservation_residual,
        "chart_jacobian_above_2": 2.0 - float(conformal.build_chart(f).J_psi.values.min()),
    }
    assert {k: value[k] for k in expected} == expected


@pytest.mark.parametrize(
    "argv",
    [
        [*_SAMPLE, "plane", "--grid", "17,1", "--out", "{dir}/p.gf"],
        ["verify-all", "--name", "plane", "--grid", "1,17"],
    ],
)
def test_one_node_axis_exits_1(tmp_path, capsys, argv):
    assert run([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "VALIDATION" in err and "5 nodes per axis" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # numpy overflows squaring the default domain's x
        (["--name", "catenoid", "--param", "rho=1e300"], "overflow"),
        # rho ** 2 overflows as a Python float
        (["--name", "catenoid", "--param", "rho=1e300", "--domain=-1,-1,1,1"],
         "out of range"),
        (["--name", "helicoid", "--param", "rho=1e200"], "overflow"),
        (["--name", "plane", "--domain", "0,0,1e-300,1e-300"], "squares below the float range"),
    ],
)
def test_catalog_overflow_exits_1_without_warning(tmp_path, capsys, argv, message):
    for command in ([*_SAMPLE[:2], "--out", str(tmp_path / "x.gf")], ["verify-all"]):
        assert run(command + argv + ["--grid", "9,9"]) == 1
        out, err = capsys.readouterr()
        assert not out and err.startswith("VALIDATION") and message in err, err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["residual", "--system", "minimal", "--in"], 1),
        (["residual", "--system", "maximal", "--in"], 0),
        (["residual", "--system", "divergence", "--in"], 1),
        (["twin", "forward", "--in"], 1),
        (["twin", "backward", "--in"], 2),
        (["sl", "lift", "--in"], 1),
        (["gauss", "planarity", "--in"], 1),
        (["chart", "build", "--in"], 1),
        (["solve", "minimal", "--boundary"], 1),
        (["solve", "maximal", "--boundary"], 1),
    ],
    ids=[
        "residual-minimal", "residual-maximal", "residual-divergence", "twin-forward",
        "twin-backward", "sl-lift", "gauss-planarity", "chart-build", "solve-minimal",
        "solve-maximal",
    ],
)
def test_overflowing_gradients_leave_only_the_error_line(tmp_path, capsys, argv, code):
    # the squares of 1e150 x^2's gradients overflow: numpy's warnings (errors
    # under this suite's filter) stay out of stderr, which holds the one
    # error line or nothing
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    path = str(tmp_path / "steep.gf")
    write_gfield(path, dom, [1e150 * dom.meshgrid()[0] ** 2])
    assert run([*argv, path]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == (1 if code else 0) and "Traceback" not in err, err


@pytest.fixture
def cli_inputs(tmp_path):
    """33^2 inputs: a holomorphic minimal graph and its twin, the special
    Lagrangian potential (x^2 + y^2)/2, half of it (split special
    Lagrangian at theta = -2 artanh(1/2)) and a three-component file."""
    paths = {k: str(tmp_path / f"{k}.gf") for k in ("holo", "twin", "quad", "half", "three")}
    assert run([*_SAMPLE, "holomorphic", "--grid", "33,33", "--out", paths["holo"]]) == 0
    assert run(["twin", "forward", "--in", paths["holo"], "--out", paths["twin"]]) == 0
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    quad = (X * X + Y * Y) / 2
    write_gfield(paths["quad"], dom, [quad])
    write_gfield(paths["half"], dom, [quad / 2])
    write_gfield(paths["three"], dom, [quad, X, Y])
    paths["dir"] = str(tmp_path)
    return paths


_RESIDUAL_KEYS = {"op", "signature", "max_abs", "l2", "normalization", "excluded_boundary", "grid"}


@pytest.mark.parametrize(
    "argv, report, code, keys",
    [
        (["twin", "backward", "--in", "{twin}"], "--report", 0,
         {"c1_residual", "c2_residual", "c3_residual", "c4_residual", "involution_residual"}),
        (["sl", "residual", "--in", "{quad}"], "--out", 0, _RESIDUAL_KEYS),
        (["sl", "residual", "--in", "{half}", "--signature", "split",
          f"--theta={-2 * float(np.arctanh(0.5))!r}"], "--out", 0, _RESIDUAL_KEYS),
        # (1 + det)^2 = trace^2: on the edge of the split spacelike region
        (["sl", "residual", "--in", "{quad}", "--signature", "split"], None, 2, "NOT_SPACELIKE"),
        # a Gauss field is a file: without --out, one error line
        (["gauss", "map", "--in", "{holo}"], "--out", 1, "VALIDATION: gauss map needs --out"),
        (["gauss", "fit", "--in", "{holo}"], "--out", 0,
         {"i", "j", "lambda", "residual", "is_nonreal"}),
        (["gauss", "jorgens", "--in", "{quad}"], "--out", 1,
         "VALIDATION: gauss jorgens needs --out"),
        (["sl", "detect-angle", "--in", "{three}"], None, 1, "single-component"),
        ([*_SAMPLE, "catenoid", "--param", "rho", "--out", "{dir}/x.gf"], None, 1, "k=v"),
        ([*_SAMPLE, "catenoid", "--domain", "0,0,1", "--out", "{dir}/x.gf"], None, 1,
         "x0,y0,x1,y1"),
    ],
    ids=[
        "twin-backward", "sl-residual", "sl-residual-split", "sl-residual-split-edge",
        "gauss-map", "gauss-fit", "gauss-jorgens", "multi-component-scalar",
        "malformed-param", "malformed-domain",
    ],
)
def test_cli_paths_in_process(cli_inputs, capsys, argv, report, code, keys):
    argv = [a.format(**cli_inputs) for a in argv]
    capsys.readouterr()
    assert run(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert keys in err and "Traceback" not in err and not out
        assert len(err.splitlines()) == 1
        if report:  # the flag the command needs: with it, a file and no output
            path = os.path.join(cli_inputs["dir"], "field.gf")
            assert run([*argv, report, path]) == 0
            assert capsys.readouterr() == ("", "") and os.path.getsize(path)
        return
    assert set(json.loads(out)) == keys
    path = os.path.join(cli_inputs["dir"], "report.json")
    assert run([*argv, report, path]) == 0
    assert capsys.readouterr().out == ""
    assert open(path).read() == out


@pytest.mark.parametrize("name", ["catenoid", "helicoid", "scherk", "holomorphic"])
def test_written_files_feed_the_readers(tmp_path, capsys, name):
    # writer -> reader chains at 33^2; each written file holds the values of
    # the library call that made it, bit for bit
    p = {k: str(tmp_path / f"{k}.gf") for k in ("f", "g", "f2", "xi", "u", "h", "zf", "zh")}
    chains = [
        [*_SAMPLE, name, "--grid", "33,33", "--out", p["f"]],
        ["residual", "--system", "minimal", "--in", p["f"]],
        ["gauss", "planarity", "--in", p["f"]],
        ["gauss", "map", "--in", p["f"], "--out", p["zf"]],
        ["chart", "weierstrass", "--in", p["f"]],
        ["twin", "forward", "--in", p["f"], "--out", p["g"]],
        ["residual", "--system", "maximal", "--in", p["g"]],
        ["chart", "resample", "--in", p["f"], "--out", p["xi"]],
        ["residual", "--system", "minimal", "--in", p["xi"]],
        ["solve", "minimal", "--boundary", p["f"], "--out", p["u"]],
        ["residual", "--system", "minimal", "--in", p["u"]],
        ["sl", "lift", "--in", p["f"], "--out", p["h"]],
        ["sl", "residual", "--in", p["h"]],
        ["sl", "detect-angle", "--in", p["h"]],
        ["twin", "verify", "--in", p["f"], "--twin", p["g"]],
        ["twin", "backward", "--in", p["g"], "--out", p["f2"]],
        ["residual", "--system", "minimal", "--in", p["f2"]],
    ]
    # every lift is unimodular to the grid's tolerance, which jorgens_gauss
    # asks of a file as verify-all's lift_hessian_det row does
    chains.append(["gauss", "jorgens", "--in", p["h"], "--out", p["zh"]])
    for argv in chains:
        assert run(argv) == 0, argv
    capsys.readouterr()
    f = read_heightmap(p["f"])
    expected = {
        "f": twinsurf.make_surface(name, None, twinsurf.default_domain(name, None, 33, 33)),
        "g": twin_forward(f).g,
        "f2": twinsurf.twin_backward(read_heightmap(p["g"])).f,
        "xi": conformal.resample_to_chart(conformal.build_chart(f), f),
        "u": twinsurf.solve_minimal(f.domain, f.components).surface,
    }
    for k, h in expected.items():
        domain, comps = read_gfield(p[k])
        assert domain == h.domain and len(comps) == h.n
        assert all(same_bits(a, b) for a, b in zip(comps, h.components)), k
    lift = twinsurf.sl_lift(f)
    domain, comps = read_gfield(p["h"])
    assert domain == lift.h.domain and len(comps) == 1 and same_bits(comps[0], lift.h.values)
    # Gauss fields as planes Re z_1, Im z_1, Re z_2, ...; holomorphic's n = 2
    # field has planes of 64-byte stride, which the write copies out of place
    for k, z in (("zf", gauss.gauss_map(f)), ("zh", gauss.jorgens_gauss(lift.h))):
        domain, comps = read_gfield(p[k])
        assert domain == f.domain and len(comps) == 2 * z.shape[-1]
        assert same_bits(np.stack(comps, -1).view(complex), z), k
