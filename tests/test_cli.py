import json
import os
import subprocess
import sys

import numpy as np
import pytest

import twinsurf
from twinsurf import conformal
from twinsurf.cli import run
from twinsurf.fields import GridDomain
from twinsurf.gfield import read_gfield, read_heightmap, write_gfield, write_heightmap
from twinsurf.twin import twin_forward


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


def test_sl_lift_and_detect_angle(catenoid_file, tmp_path, capsys):
    lift_path = str(tmp_path / "lift.gf")
    assert run(["sl", "lift", "--in", catenoid_file, "--out", lift_path]) == 0
    report = _json_out(capsys)
    # file inputs carry no gradient fields, so one-sided boundary stencils
    # dominate this diagnostic; the interior identity is tested in test_slag
    assert report["hessian_det_residual"] <= 0.1
    _, comps = read_gfield(lift_path)
    assert len(comps) == 3  # h, M, N
    h_path = str(tmp_path / "h.gf")
    dom, comps = read_gfield(lift_path)
    write_gfield(h_path, dom, comps[:1])
    assert run(["sl", "detect-angle", "--in", h_path, "--mode", "euclidean"]) == 0
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
    assert run(["sl", "detect-angle", "--in", path, "--mode", "euclidean"]) == 0
    assert _json_out(capsys) == out


def test_sl_rotate_defaults_to_standard_mode(catenoid_file, tmp_path):
    paths = [str(tmp_path / "default.gf"), str(tmp_path / "standard.gf")]
    assert run(["sl", "rotate", "--in", catenoid_file, "--out", paths[0]]) == 0
    argv = ["sl", "rotate", "--in", catenoid_file, "--mode", "standard"]
    assert run(argv + ["--out", paths[1]]) == 0
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_sl_rotate_rejects_bad_params(catenoid_file, capsys):
    code = run(
        [
            "sl", "rotate", "--in", catenoid_file,
            "--lambda1", "1", "--lambda2", "1", "--epsilon", "1",
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


def test_missing_file_is_validation_error(capsys):
    assert run(["residual", "--system", "minimal", "--in", "/no/such.gf"]) == 1
    assert "VALIDATION" in capsys.readouterr().err


def test_cli_import_leaves_scipy_integrate_out():
    # no scipy module at all: only `solve` loads it, on use
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

    monkeypatch.setattr(twinsurf.catalog, "make_surface", refuse)
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


@pytest.mark.parametrize("damage", ["token", "short_row"])
def test_solve_malformed_boundary_exits_1(tmp_path, capsys, damage):
    path = _sample(str(tmp_path / "cat17.gf"), "17,17")
    lines = open(path).read().splitlines()
    tokens = lines[10].split()
    if damage == "token":
        tokens[4] = "nanx"
    else:
        tokens.pop()
    lines[10] = " ".join(tokens)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert run(["solve", "minimal", "--boundary", path]) == 1
    assert "VALIDATION" in capsys.readouterr().err


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
    inf_dx.write_text("GFIELD 1\n5 5 1\n0 0 inf 1\n" + "0 0 0 0 0\n" * 5)
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

    for signature in ("euclidean", "split"):
        argv = ["chart", "nullcurve", "--in", catenoid_file, "--signature", signature]
        assert run(argv) == 0
        nc = conformal.null_curve(f, chart, signature)
        assert _json_out(capsys) == {
            "holomorphy_residual": nc.holomorphy_residual,
            "nullity_residual": nc.nullity_residual,
            "signature": signature,
        }

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


def test_verify_all_shares_the_residual_and_the_potentials(monkeypatch, capsys):
    calls = _count_calls(
        monkeypatch, ("minimal_residual", "maximal_residual", "integrate_exact_form")
    )
    assert run(["verify-all", "--name", "catenoid", "--grid", "65,65"]) == 0
    # the twin and its involution, then M, N and the lift's h
    assert calls == {"minimal_residual": 1, "maximal_residual": 1, "integrate_exact_form": 5}


def test_verify_all_takes_the_jacobian_data_once_per_map(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, ("jacobian_data",))
    assert run(["verify-all", "--name", "catenoid", "--grid", "65,65"]) == 0
    # the surface (its area-angle check and its twin), the twin's raw
    # values for c2, the twin's twin in the involution
    assert calls == {"jacobian_data": 3}


def test_verify_all_matches_the_public_constructions(capsys):
    assert run(["verify-all", "--name", "helicoid", "--grid", "65,65"]) == 0
    value = {c["name"]: c["value"] for c in _json_out(capsys)["checks"]}
    f = twinsurf.make_surface("helicoid", None, twinsurf.default_domain("helicoid", {}, 65, 65))
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
_FIELD_KEYS = {"grid", "components"}


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
        (["gauss", "map", "--in", "{holo}"], "--out", 0, _FIELD_KEYS),
        (["gauss", "fit", "--in", "{holo}"], "--out", 0,
         {"i", "j", "lambda", "residual", "is_nonreal"}),
        (["gauss", "jorgens", "--in", "{quad}"], "--out", 0, _FIELD_KEYS),
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
        return
    assert set(json.loads(out)) == keys
    path = os.path.join(cli_inputs["dir"], "report.json")
    assert run([*argv, report, path]) == 0
    assert capsys.readouterr().out == ""
    assert open(path).read() == out
