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
from twinsurf.fields import GridDomain, HeightMap, diff_x, diff_y, first_fundamental_form
from twinsurf.slag import sl_lift
from twinsurf.twin import TwinPair, twin_forward

from conftest import random_heightmap, same_bits, surface


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
    nc = null_curve(f, chart)
    phi = _ref_null_phi(f, *_ref_pullback(chart))
    assert np.abs(phi[0] - 0.5).max() < 1e-8
    assert np.abs(phi[1] + 0.5j).max() < 1e-8
    assert np.abs(phi[2]).max() < 1e-8
    assert nc["holomorphy_residual"] < 1e-7
    assert nc["nullity_residual"] < 1e-7


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
    # null_curve reads a minimal side; the maximal side's split nullity is the reference's
    nf = null_curve(pair.f, chart)
    A, B = _ref_pullback(chart)
    phi, phihat = _ref_null_phi(pair.f, A, B), _ref_null_phi(pair.g, A, B)
    r = max(
        float(np.abs((phihat[k] + 1j * phi[k])[2:-2, 2:-2]).max())
        for k in range(2, len(phi))
    )
    return {
        "height_residual": r,
        "max_residual": r,
        "holomorphy_residual_min_side": nf["holomorphy_residual"],
        "nullity_residual_min_side": nf["nullity_residual"],
        "nullity_residual_max_side": _ref_nullity(phihat, "split"),
    }


@pytest.mark.parametrize("name", ["catenoid", "scherk", "holomorphic"])
def test_weierstrass_twin_pulls_back_once_and_equals_two_null_curves(name, monkeypatch):
    # once per row block: 16-row blocks of the rows 2 .. 62 kept at 65^2
    f = surface(name, 65, 65)
    pair, chart = twin_forward(f), build_chart(f)
    rows = []
    pullback = conformal._pullback

    def counted(chart, block):
        rows.append((block.start, block.stop))
        return pullback(chart, block)

    monkeypatch.setattr(conformal, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(conformal, "_pullback", counted)
    out = verify_weierstrass_twin(pair, chart)
    assert rows == [(0, 20), (16, 36), (32, 52), (48, 65)]
    monkeypatch.undo()
    assert out == _weierstrass_from_null_curves(pair, chart)


def _block_pair(name, ny):
    if name != "random":
        f = surface(name, 41, ny)
        return twin_forward(f), build_chart(f)
    rng = np.random.default_rng(ny)
    dom = GridDomain.from_bounds(-0.6, -0.6, 0.6, 0.6, 41, ny)
    f = random_heightmap(rng, dom, n=2, amplitude=0.1)
    return TwinPair(f, random_heightmap(rng, dom, n=2), None), build_chart(f, tol=1e6)


@pytest.mark.parametrize("rest", [1, 2])
@pytest.mark.parametrize("name", ["catenoid", "scherk", "holomorphic", "random"])
def test_row_blocks_equal_one_whole_grid_block_bit_for_bit(name, rest, monkeypatch):
    # the kept rows 2 .. ny - 3 end in a block of ``rest`` rows, no more
    # than the halo; a block height of ny takes the whole grid in one block
    ny = 2 * conformal._MARGIN_CELLS + 3 * conformal._BLOCK_ROWS + rest
    _blocks_equal_one_block(name, ny, monkeypatch)


@pytest.mark.parametrize("name", ["catenoid", "scherk", "holomorphic", "random"])
def test_row_blocks_past_260_rows_equal_one_whole_grid_block_bit_for_bit(name, monkeypatch):
    # 257 kept rows: 17-row blocks, the last of 2 rows
    rows = []
    pullback = conformal._pullback

    def counted(chart, block):
        rows.append(block.stop - block.start - 2 * conformal._HALO)
        return pullback(chart, block)

    with monkeypatch.context() as m:
        m.setattr(conformal, "_pullback", counted)
        _blocks_equal_one_block(name, 2 * conformal._MARGIN_CELLS + 257, monkeypatch)
    assert rows[:16] == [17] * 15 + [2]


def _blocks_equal_one_block(name, ny, monkeypatch):
    pair, chart = _block_pair(name, ny)

    def residuals():
        return repr([
            verify_weierstrass_twin(pair, chart),
            null_curve(pair.f, chart),
        ])

    blocked = residuals()
    monkeypatch.setattr(conformal, "_BLOCK_ROWS", ny)
    assert residuals() == blocked  # repr tells every float's bits apart


def test_weierstrass_twin_rejects_twin_on_other_grid():
    f, chart = flat_chart(33)
    g = HeightMap(GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 17, 17), [np.zeros((17, 17))])
    pair = TwinPair(f, g, None)
    with pytest.raises(ValidationError):
        verify_weierstrass_twin(pair, chart)


def test_weierstrass_twin_rejects_sides_with_other_component_counts():
    f = surface("holomorphic", 33, 33)  # n = 2
    g = twin_forward(f).g
    pair = TwinPair(f, HeightMap(g.domain, g.components[:1]), None)
    with pytest.raises(ValidationError, match="twin sides differ"):
        verify_weierstrass_twin(pair, build_chart(f))


def test_bilinear_exact_on_bilinear_functions():
    dom = GridDomain.from_bounds(-1.0, 0.5, 2.0, 1.5, 31, 17)
    X, Y = dom.meshgrid()
    a, b, c, d = 0.3, -1.7, 2.2, 0.9
    rng = np.random.default_rng(5)
    x = rng.uniform(dom.x0, dom.x1, (40, 30))
    y = rng.uniform(dom.y0, dom.y1, (40, 30))
    v = _bilinear(a + b * X + c * Y + d * X * Y, _cell(dom, x, y))
    assert np.abs(v - (a + b * x + c * y + d * x * y)).max() < 1e-13


# ---------------------------------------------------------------- bitwise oracles
# the expressions of the null-curve kernels that held every phi_k at once


def _ref_pullback(chart, rows=slice(None)):
    dom = chart.source.domain
    xi1, xi2 = chart.xi1.values[rows], chart.xi2.values[rows]
    xi1_x, xi1_y = diff_x(xi1, dom.dx), diff_y(xi1, dom.dy)
    xi2_x, xi2_y = diff_x(xi2, dom.dx), diff_y(xi2, dom.dy)
    det = xi1_x * xi2_y - xi1_y * xi2_x
    return (xi2_y + 1j * xi1_y) / det, -(xi2_x + 1j * xi1_x) / det


def _ref_null_phi(h, A, B):
    dom = h.domain
    return [A, B] + [A * diff_x(c, dom.dx) + B * diff_y(c, dom.dy) for c in h.components]


def _ref_holomorphy(phi, A, B, dom):
    cr = (A.conj() * diff_x(p, dom.dx) + B.conj() * diff_y(p, dom.dy) for p in phi)
    return max([0.0] + [float(np.abs(c[3:-3, 3:-3]).max()) for c in cr])


def _ref_nullity(phi, signature):
    if signature == "euclidean":
        null = sum(p * p for p in phi)
    else:
        null = phi[0] ** 2 + phi[1] ** 2 - sum(p * p for p in phi[2:])
    return float(np.abs(null[2:-2, 2:-2]).max())


def _ref_weierstrass(pair, chart):
    A, B = _ref_pullback(chart)
    phi, phihat = _ref_null_phi(pair.f, A, B), _ref_null_phi(pair.g, A, B)
    rel = (np.abs((p + 1j * q)[2:-2, 2:-2]).max() for p, q in zip(phihat[2:], phi[2:]))
    r = max([0.0] + [float(v) for v in rel])
    return {
        "height_residual": r,
        "max_residual": r,
        "holomorphy_residual_min_side": _ref_holomorphy(phi, A, B, pair.f.domain),
        "nullity_residual_min_side": _ref_nullity(phi, "euclidean"),
        "nullity_residual_max_side": _ref_nullity(phihat, "split"),
    }


def _bit_pairs():
    for name in ("catenoid", "scherk", "holomorphic"):
        f = surface(name, 33, 33)
        yield twin_forward(f), build_chart(f)
    # no identity holds on random maps, so every residual reads well above
    # rounding and its largest node moves from seed to seed
    rng = np.random.default_rng(9)
    dom = surface("holomorphic", 33, 33).domain
    for _ in range(8):
        f = random_heightmap(rng, dom, n=2, amplitude=0.1)
        yield TwinPair(f, random_heightmap(rng, dom, n=2), None), build_chart(f, tol=1e6)


def test_chart_xi_equals_its_meshgrid_form_bit_for_bit():
    for _, chart in _bit_pairs():
        X, Y = chart.source.domain.meshgrid()
        assert same_bits(chart.xi1.values, X + chart.M.values)
        assert same_bits(chart.xi2.values, Y + chart.N.values)


def test_chart_jacobian_is_its_metrics_over_area_bit_for_bit():
    for _, chart in _bit_pairs():
        Ew, _, Gw = first_fundamental_form(chart.source.gradients).over_area
        assert same_bits(chart.J_psi.values, 2.0 + Ew + Gw)


def test_null_curve_kernels_match_their_reference_bit_for_bit():
    for pair, chart in _bit_pairs():
        dom = chart.source.domain
        A, B = conformal._pullback(chart, slice(None))
        assert all(same_bits(a, b) for a, b in zip((A, B), _ref_pullback(chart)))
        Ac, Bc = A.conj(), B.conj()
        for h in (pair.f, pair.g):
            phi = _ref_null_phi(h, A, B)
            assert all(
                same_bits(conformal._phi(c, A, B, dom), p)
                for c, p in zip(h.components, phi[2:])
            )
            # the fields behind the maxima, whose largest node hides most bits
            for p in phi:
                dbar = conformal._dbar(p, Ac, Bc, dom)
                assert same_bits(dbar, A.conj() * diff_x(p, dom.dx) + B.conj() * diff_y(p, dom.dy))
            curve = null_curve(h, chart)
            assert same_bits(curve["holomorphy_residual"], _ref_holomorphy(phi, A, B, dom))
            assert same_bits(curve["nullity_residual"], _ref_nullity(phi, "euclidean"))


@pytest.mark.parametrize("name", ["plane", "catenoid", "helicoid", "scherk", "holomorphic"])
def test_pullback_of_each_row_block_matches_its_reference_bit_for_bit(name):
    # A, B from real products with 1/det: the bits of the complex division
    # they replaced, block by block as the null-curve kernels take them
    f = surface(name, 65, 49)
    charts = [build_chart(f), build_chart(random_heightmap(np.random.default_rng(7), f.domain), tol=1e6)]
    for chart in charts:
        blocks = [rows for rows, *_ in conformal._blocks(chart)]
        assert len(blocks) == 3
        for rows in blocks + [slice(0, 5), slice(None)]:
            A, B = conformal._pullback(chart, rows)
            refA, refB = _ref_pullback(chart, rows)
            assert same_bits(A, refA) and same_bits(B, refB), (name, rows)
            assert A.flags.c_contiguous and B.flags.c_contiguous


def test_weierstrass_twin_matches_its_reference_bit_for_bit():
    for pair, chart in _bit_pairs():
        out, ref = verify_weierstrass_twin(pair, chart), _ref_weierstrass(pair, chart)
        assert list(out) == list(ref)
        assert all(same_bits(out[key], ref[key]) for key in ref), (out, ref)
