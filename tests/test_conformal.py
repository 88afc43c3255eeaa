import numpy as np
import pytest

from twinsurf import conformal
from twinsurf.conformal import (
    _bilinear,
    _cell,
    _invert_chart,
    build_chart,
    default_target_grid,
    null_curve,
    resample_to_chart,
    verify_weierstrass_twin,
)
from twinsurf.errors import NotMinimal, TargetOutsideImage, ValidationError
from twinsurf.fields import GridDomain, HeightMap
from twinsurf.slag import sl_lift
from twinsurf.twin import TwinPair, default_tol, twin_forward

from conftest import surface


def flat_chart(nx=33):
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, nx, nx)
    f = HeightMap(dom, [np.zeros(dom.shape)])
    return f, build_chart(f)


def test_flat_chart_closed_form():
    f, chart = flat_chart()
    X, Y = f.domain.meshgrid()
    assert np.abs(chart.M.values - X).max() < 1e-12
    assert np.abs(chart.N.values - Y).max() < 1e-12
    assert np.abs(chart.J_psi.values - 4.0).max() < 1e-12


def test_affine_graph_chart_is_affine():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    chart = build_chart(HeightMap(dom, [0.4 * X + 0.3 * Y]))
    assert np.ptp(chart.J_psi.values) < 1e-12  # constant
    for xi in (chart.xi1.values, chart.xi2.values):
        # affine in (x, y): second differences vanish
        assert np.abs(np.diff(xi, n=2, axis=0)).max() < 1e-12
        assert np.abs(np.diff(xi, n=2, axis=1)).max() < 1e-12


def test_catenoid_jacobian_value_at_known_node():
    # at (2, 0): J_psi = 2 + (4/3 + 1) / (2/sqrt(3)) = 2 + 7 sqrt(3)/6
    dom = GridDomain.from_bounds(1.5, -0.5, 2.5, 0.5, 65, 65)
    f = surface("catenoid", 65, 65).__class__  # noqa: F841 (keep import surface used)
    X, Y = dom.meshgrid()
    r = np.hypot(X, Y)
    g = HeightMap(
        dom,
        [np.arccosh(r)],
        [(X / (r * np.sqrt(r * r - 1)), Y / (r * np.sqrt(r * r - 1)))],
    )
    chart = build_chart(g)
    assert chart.J_psi.values[32, 32] == pytest.approx(2 + 7 * np.sqrt(3) / 6, abs=1e-9)
    assert chart.J_psi.values.min() > 2.0


def test_chart_requires_minimal_input():
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(NotMinimal):
        build_chart(HeightMap(dom, [X**2]))


def test_chart_shares_potentials_with_lift():
    f = surface("scherk", 49, 49)
    chart = build_chart(f, basepoint=(3, 5))
    lift = sl_lift(f, basepoint=(3, 5))
    assert np.abs(chart.M.values - lift.M.values).max() < 1e-12
    assert np.abs(chart.N.values - lift.N.values).max() < 1e-12


def test_resample_flat_chart_is_exact_inverse():
    f, chart = flat_chart()
    X = resample_to_chart(chart, f)
    td = X.domain
    XI1, XI2 = td.meshgrid()
    assert np.abs(X.components[0] - XI1 / 2).max() < 1e-9
    assert np.abs(X.components[1] - XI2 / 2).max() < 1e-9
    assert np.abs(X.components[2]).max() < 1e-9


def test_default_target_grid_inside_image():
    f = surface("catenoid", 65, 33)
    chart = build_chart(f)
    target = default_target_grid(chart)
    assert target.x0 >= chart.xi1.values[:, 0].max()
    assert target.x1 <= chart.xi1.values[:, -1].min()


@pytest.mark.parametrize("name", ["catenoid", "scherk", "helicoid", "holomorphic"])
def test_invert_chart_solves_psi_inside_the_source_rectangle(name):
    f = surface(name, 65, 65)
    chart = build_chart(f)
    target = default_target_grid(chart)
    x, y, cell = _invert_chart(chart, target)
    for got, want in zip(cell, _cell(f.domain, x, y)):
        assert np.array_equal(got, want)  # the cell of the returned preimages
    t1, t2 = target.meshgrid()
    r1 = x + _bilinear(chart.M.values, cell) - t1
    r2 = y + _bilinear(chart.N.values, cell) - t2
    assert np.hypot(r1, r2).max() <= 1e-12
    dom = f.domain
    assert dom.x0 <= x.min() and x.max() <= dom.x1
    assert dom.y0 <= y.min() and y.max() <= dom.y1


@pytest.mark.parametrize("name", ["catenoid", "scherk"])
def test_invert_chart_evaluates_each_point_once(name, monkeypatch):
    # resample_to_chart reuses the cell of the last residual
    chart = build_chart(surface(name, 65, 65))
    seen = []

    def recording_cell(dom, x, y):
        seen.append((x.tobytes(), y.tobytes()))
        return _cell(dom, x, y)

    monkeypatch.setattr(conformal, "_cell", recording_cell)
    resample_to_chart(chart, chart.source)
    assert len(seen) > 2
    assert len(set(seen)) == len(seen)


def test_invert_chart_rejects_target_past_the_image():
    chart = build_chart(surface("catenoid", 65, 65))
    t = default_target_grid(chart)
    half = (t.x1 - t.x0) / 2
    shifted = GridDomain.from_bounds(t.x0 + half, t.y0, t.x1 + half, t.y1, t.nx, t.ny)
    with pytest.raises(TargetOutsideImage):
        _invert_chart(chart, shifted)


def test_null_curve_of_flat_immersion():
    f, chart = flat_chart()
    nc = null_curve(f, chart, "euclidean")
    assert np.abs(nc.phi[0] - 0.5).max() < 1e-8
    assert np.abs(nc.phi[1] + 0.5j).max() < 1e-8
    assert np.abs(nc.phi[2]).max() < 1e-8
    assert nc.holomorphy_residual < 1e-7
    assert nc.nullity_residual < 1e-7


def test_null_curve_signatures():
    f, chart = flat_chart()
    assert null_curve(f, chart, "split").nullity_residual < 2e-7
    with pytest.raises(ValidationError):
        null_curve(f, chart, "lorentz")


def test_weierstrass_relation_on_plane_pair():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 49, 49)
    X, Y = dom.meshgrid()
    f = HeightMap(dom, [0.2 * X - 0.1 * Y])
    pair = twin_forward(f)
    chart = build_chart(f)
    out = verify_weierstrass_twin(pair, chart)
    assert out["max_residual"] <= 1e-10
    assert set(out) >= {"height_residual", "max_residual"}


def test_weierstrass_relation_on_holomorphic_pair():
    f = surface("holomorphic", 65, 65)
    pair = twin_forward(f)
    chart = build_chart(f)
    out = verify_weierstrass_twin(pair, chart)
    assert out["max_residual"] <= 0.02  # n = 2: four component relations


_WEIERSTRASS_CHECKS = (
    "height_residual",
    "holomorphy_residual_min_side",
    "nullity_residual_min_side",
    "nullity_residual_max_side",
)


def _weierstrass(name, n, values_only):
    f = surface(name, n, n)
    if values_only:
        f = HeightMap(f.domain, f.components)
    return verify_weierstrass_twin(twin_forward(f), build_chart(f))


@pytest.mark.parametrize("values_only", [False, True], ids=["catalog", "values"])
@pytest.mark.parametrize("name", ["catenoid", "scherk", "helicoid"])
def test_weierstrass_residuals_second_order(name, values_only):
    coarse = _weierstrass(name, 129, values_only)
    fine = _weierstrass(name, 257, values_only)
    for key in _WEIERSTRASS_CHECKS:
        assert coarse[key] / fine[key] >= 3.5, key


@pytest.mark.parametrize("values_only", [False, True], ids=["catalog", "values"])
def test_weierstrass_residuals_vanish_on_holomorphic_pair(values_only):
    out = _weierstrass("holomorphic", 257, values_only)
    assert all(out[key] <= 1e-10 for key in _WEIERSTRASS_CHECKS), out


def _weierstrass_from_null_curves(pair, chart):
    nf = null_curve(pair.f, chart, "euclidean")
    ng = null_curve(pair.g, chart, "split")
    r = max(
        float(np.abs((ng.phi[k] + 1j * nf.phi[k])[2:-2, 2:-2]).max())
        for k in range(2, len(nf.phi))
    )
    return {
        "height_residual": r,
        "max_residual": r,
        "holomorphy_residual_min_side": nf.holomorphy_residual,
        "nullity_residual_min_side": nf.nullity_residual,
        "nullity_residual_max_side": ng.nullity_residual,
    }


@pytest.mark.parametrize("name", ["catenoid", "scherk", "holomorphic"])
def test_weierstrass_twin_pulls_back_once_and_equals_two_null_curves(name, monkeypatch):
    f = surface(name, 65, 65)
    pair, chart = twin_forward(f), build_chart(f)
    calls = []
    pullback = conformal._pullback

    def counted(*args):
        calls.append(args)
        return pullback(*args)

    monkeypatch.setattr(conformal, "_pullback", counted)
    out = verify_weierstrass_twin(pair, chart)
    assert len(calls) == 1
    monkeypatch.undo()
    assert out == _weierstrass_from_null_curves(pair, chart)


def test_weierstrass_twin_rejects_twin_on_other_grid():
    f, chart = flat_chart(33)
    g = HeightMap(GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 17, 17), [np.zeros((17, 17))])
    pair = TwinPair(f, g, None, (0, 0), default_tol(f.domain))
    with pytest.raises(ValidationError):
        verify_weierstrass_twin(pair, chart)


def test_bilinear_exact_on_bilinear_functions():
    dom = GridDomain.from_bounds(-1.0, 0.5, 2.0, 1.5, 31, 17)
    X, Y = dom.meshgrid()
    a, b, c, d = 0.3, -1.7, 2.2, 0.9
    rng = np.random.default_rng(5)
    x = rng.uniform(dom.x0, dom.x1, (40, 30))
    y = rng.uniform(dom.y0, dom.y1, (40, 30))
    v = _bilinear(a + b * X + c * Y + d * X * Y, _cell(dom, x, y))
    assert np.abs(v - (a + b * x + c * y + d * x * y)).max() < 1e-13
