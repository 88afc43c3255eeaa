import subprocess
import sys

import numpy as np
import pytest

from twinsurf.catalog import (
    MINIMAL_SURFACES,
    SURFACES,
    default_domain,
    known_lift,
    make_entry,
    make_surface,
)
from twinsurf.errors import DomainNotAdmissible, ValidationError
from twinsurf.fields import GridDomain, HeightMap, diff_x, diff_y
from twinsurf.systems import maximal_residual, minimal_residual

from conftest import same_bits


@pytest.mark.parametrize("name", SURFACES)
def test_analytic_gradients_match_finite_differences(name):
    dom = default_domain(name, None, 49, 49)
    f = make_surface(name, None, dom)
    h2 = dom.h**2
    for c, (a, b) in zip(f.components, f.gradients):
        fd_a = diff_x(c, dom.dx)
        fd_b = diff_y(c, dom.dy)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a - fd_a)[1:-1, 1:-1].max() <= 60 * h2 * scale
        assert np.abs(b - fd_b)[1:-1, 1:-1].max() <= 60 * h2 * scale


@pytest.mark.parametrize("name", MINIMAL_SURFACES)
def test_minimal_entries_solve_the_system(name):
    dom = default_domain(name, None, 65, 65)
    f = make_surface(name, None, dom)
    assert minimal_residual(f).max_abs("scaled") <= 50 * dom.h**2


def test_lagrangian_catenoid_matches_catenoid_lift():
    dom = default_domain("catenoid", None, 49, 49)
    f = make_surface("lagrangian_catenoid", None, dom)
    X, Y = dom.meshgrid()
    M, N = known_lift("catenoid")(X, Y)
    assert np.abs(f.components[0] - M).max() < 1e-12
    assert np.abs(f.components[1] - N).max() < 1e-12


def test_lagrangian_catenoid_is_minimal():
    # special Lagrangian gradient graph: minimal in the euclidean ambient space
    dom = default_domain("lagrangian_catenoid", None, 65, 65)
    g = make_surface("lagrangian_catenoid", None, dom)
    assert minimal_residual(g).max_abs("scaled") <= 50 * dom.h**2


def test_quadratic_gradient_components():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    f = make_surface("quadratic_gradient", {"a": 2.0, "b": 0.5, "c": 0.25}, dom)
    X, Y = dom.meshgrid()
    assert np.abs(f.components[0] - (2.0 * X + 0.25 * Y)).max() < 1e-14
    assert np.abs(f.components[1] - (0.25 * X + 0.5 * Y)).max() < 1e-14


def test_chamberland_reverse_unimodular():
    # gradient graph of h = x y + f(x): D^2 h = [[f'', 1], [1, 0]], det = -1
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    f = make_surface("chamberland_reverse", {"f4": 1.0}, dom)
    X, Y = dom.meshgrid()
    assert np.abs(f.components[0] - (Y + 4 * X**3)).max() < 1e-12
    assert np.abs(f.components[1] - X).max() < 1e-12
    hxx = diff_x(f.components[0], dom.dx)
    hxy = diff_y(f.components[0], dom.dy)
    hyy = diff_y(f.components[1], dom.dy)
    det = hxx * hyy - hxy * diff_x(f.components[1], dom.dx)
    assert np.abs(det + 1.0)[1:-1, 1:-1].max() < 1e-10


def test_holomorphic_coefficient_parsing():
    dom = GridDomain.from_bounds(-0.3, -0.3, 0.3, 0.3, 9, 9)
    # phi_0 = i z: components (Re, Im) = (-y, x)
    f = make_surface("holomorphic", {"c0_1_im": 1.0}, dom)
    X, Y = dom.meshgrid()
    assert np.abs(f.components[0] + Y).max() < 1e-14
    assert np.abs(f.components[1] - X).max() < 1e-14


def test_holomorphic_rejects_bad_params():
    with pytest.raises(ValidationError):
        make_entry("holomorphic", {"d0_1_re": 1.0})
    with pytest.raises(ValidationError):
        make_entry("holomorphic", {"c1_0_re": 1.0})  # missing c0


def test_inadmissible_domain_reports_nodes():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)  # contains r <= rho
    with pytest.raises(DomainNotAdmissible) as exc:
        make_surface("catenoid", None, dom)
    assert len(exc.value.nodes) > 0


def test_unknown_surface_rejected():
    with pytest.raises(ValidationError):
        make_entry("enneper")


def test_default_domains_are_admissible():
    for name in SURFACES:
        dom = default_domain(name, None, 17, 17)
        make_surface(name, None, dom)  # must not raise


def test_known_lift_only_for_stated_entries():
    assert known_lift("catenoid") is not None
    assert known_lift("scherk") is not None
    assert known_lift("plane") is None


@pytest.mark.parametrize(
    "name, params",
    [
        ("chamberland_reverse", {"fx": 1.0}),
        ("plane", {"zz": 1.0}),
        ("plane", {"a0": 1.0}),
        ("holomorphic", {"cX_1_re": 1.0}),
        ("holomorphic", {"c0_1_foo": 1.0}),
        ("catenoid", {"rh0": 2.0}),
        ("quadratic_gradient", {"d": 1.0}),
        ("helicoid", {"rho": 1.0, "r": 1.0}),
        ("scherk", {"rho1": 1.0}),
        ("lagrangian_catenoid", {"a1": 1.0}),
        ("plane", {"rho": 2.0}),
    ],
)
def test_bad_param_names_rejected(name, params):
    # default_domain refuses them as make_surface does
    with pytest.raises(ValidationError) as made:
        make_surface(name, params, GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9))
    with pytest.raises(ValidationError) as sampled:
        default_domain(name, params, 9, 9)
    assert str(sampled.value) == str(made.value)


@pytest.mark.parametrize(
    "name", ["catenoid", "helicoid", "scherk", "lagrangian_catenoid"]
)
@pytest.mark.parametrize("rho", [0.0, -1.0, float("inf"), float("nan")])
def test_rho_must_be_finite_and_positive(name, rho):
    with pytest.raises(ValidationError):
        make_entry(name, {"rho": rho})
    with pytest.raises(ValidationError):
        default_domain(name, {"rho": rho}, 9, 9)


def _ref_bounds(name, rho):
    # the reference: default_domain's rectangle per family, as one table
    return {
        "plane": (-1.0, -1.0, 1.0, 1.0),
        "catenoid": (1.5 * rho, -0.75 * rho, 3.0 * rho, 0.75 * rho),
        "helicoid": (rho, rho, 2.0 * rho, 2.0 * rho),
        "scherk": (-0.6 / rho, -0.6 / rho, 0.6 / rho, 0.6 / rho),
        "holomorphic": (-0.3, -0.3, 0.3, 0.3),
        "quadratic_gradient": (-0.5, -0.5, 0.5, 0.5),
        "lagrangian_catenoid": (1.5 * rho, -0.75 * rho, 3.0 * rho, 0.75 * rho),
        "chamberland_reverse": (-0.5, -0.5, 0.5, 0.5),
    }[name]


@pytest.mark.parametrize("name", SURFACES)
def test_default_domain_is_the_reference_rectangle_bit_for_bit(name):
    # the oracle's params, and for a rho family the variants the benchmark
    # samples (0.8-1.25) and more
    params = [None] + [p for n, p in ORACLE_PARAMS if n == name]
    if name in ("catenoid", "helicoid", "scherk", "lagrangian_catenoid"):
        params += [{"rho": round(0.8 + 0.05 * k, 2)} for k in range(10)] + [{"rho": 2}]
    for p in params:
        rho = float((p or {}).get("rho", 1.0))
        ref = GridDomain.from_bounds(*_ref_bounds(name, rho), 33, 17)
        dom = default_domain(name, p, 33, 17)
        got, want = (np.array([d.x0, d.y0, d.dx, d.dy, d.nx, d.ny]) for d in (dom, ref))
        assert same_bits(got, want), p


# two parameter sets per family for the symbolic oracle below
ORACLE_PARAMS = [
    ("plane", {}),
    ("plane", {"a1": 0.5, "b1": -2.0, "c1": 1.5, "a2": 1.0, "c2": -0.25}),
    ("catenoid", {}),
    ("catenoid", {"rho": 0.7}),
    ("helicoid", {}),
    ("helicoid", {"rho": 1.3}),
    ("scherk", {}),
    ("scherk", {"rho": 0.9}),
    ("holomorphic", {}),
    ("holomorphic", {"c0_3_re": 0.5, "c0_1_im": -1.0, "c1_0_re": 2.0, "c1_2_im": 0.7}),
    ("quadratic_gradient", {}),
    ("quadratic_gradient", {"a": 2.0, "b": 0.5, "c": 0.25}),
    ("lagrangian_catenoid", {}),
    ("lagrangian_catenoid", {"rho": 1.2}),
    ("chamberland_reverse", {}),
    ("chamberland_reverse", {"f0": 1.0, "f2": -0.5, "f3": 2.0}),
]


def _symbolic(sp, x, y, name, params):
    """Each family's closed form in sympy: (components, lift or None)."""
    rho = params.get("rho", 1.0)
    r2 = x**2 + y**2
    if name == "plane":
        comps = []
        for k in range(1, max([int(key[1:]) for key in params] or [1]) + 1):
            a, b, c = (params.get(f"{p}{k}", 0.0) for p in "abc")
            comps.append(a + b * x + c * y)
        return comps, None
    if name == "catenoid":
        s = sp.sqrt(1 - rho**2 / r2)
        return [rho * sp.acosh(sp.sqrt(r2) / rho)], (s * x, s * y)
    if name == "helicoid":
        s = sp.sqrt(1 + rho**2 / r2)
        return [rho * sp.atan(y / x)], (s * x, s * y)
    if name == "scherk":
        value = (sp.log(sp.cos(rho * x)) - sp.log(sp.cos(rho * y))) / rho
        lift = (
            sp.asinh(sp.tan(rho * x) * sp.cos(rho * y)) / rho,
            sp.asinh(sp.tan(rho * y) * sp.cos(rho * x)) / rho,
        )
        return [value], lift
    if name == "holomorphic":
        z = x + sp.I * y
        coeffs = params or {"c0_2_re": 1.0}
        comps = []
        for m in sorted({int(k.split("_")[0][1:]) for k in coeffs}):
            phi = 0
            for key, v in coeffs.items():
                cm, j, part = key.split("_")
                if int(cm[1:]) == m:
                    phi += (v if part == "re" else sp.I * v) * z ** int(j)
            comps += [sp.re(sp.expand(phi)), sp.im(sp.expand(phi))]
        return comps, None
    if name == "quadratic_gradient":
        a, b, c = params.get("a", 1.0), params.get("b", 1.0), params.get("c", 0.0)
        return [a * x + c * y, c * x + b * y], None
    if name == "lagrangian_catenoid":
        s = sp.sqrt(1 - rho**2 / r2)
        return [s * x, s * y], None
    # chamberland_reverse: gradient graph of h = x y + f(x)
    f = sum(v * x ** int(k[1:]) for k, v in (params or {"f4": 1.0}).items())
    return [y + sp.diff(f, x), x], None


@pytest.mark.parametrize("name, params", ORACLE_PARAMS)
def test_closed_forms_match_symbolic_oracle(name, params):
    # values, gradients and lifts against sympy's differentiation of the same
    # closed forms, at random admissible points: |numpy - sympy| <= 1e-13 max(1, |v|)
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y", real=True)
    dom = default_domain(name, params, 9, 9)
    rng = np.random.default_rng(7)
    X = rng.uniform(dom.x0, dom.x1, 200)
    Y = rng.uniform(dom.y0, dom.y1, 200)
    entry = make_entry(name, params)
    assert entry.admissible(X, Y).all()

    def close(got, expr):
        want = np.broadcast_to(sp.lambdify((x, y), expr, "numpy")(X, Y), X.shape)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    exprs, lift = _symbolic(sp, x, y, name, params)
    comps, grads = entry.evaluate(X, Y)
    assert entry.n == len(comps) == len(grads) == len(exprs)
    for expr, value, (gx, gy) in zip(exprs, comps, grads):
        close(value, expr)
        close(gx, sp.diff(expr, x))
        close(gy, sp.diff(expr, y))
    closed_form = known_lift(name, params)
    assert (closed_form is None) == (lift is None)
    if lift is not None:
        for value, expr in zip(closed_form(X, Y), lift):
            close(value, expr)


def test_imports_and_runs_without_sympy():
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None  # any import of sympy now fails\n"
        "import twinsurf\n"
        "from twinsurf.cli import run\n"
        "sys.exit(run(['verify-all', '--name', 'scherk', '--grid', '33,33']))\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=300)
    assert p.returncode == 0, p.stderr.decode()
