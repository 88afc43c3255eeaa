import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsurf.errors import ValidationError
from twinsurf.fields import (
    GridDomain,
    HeightMap,
    ScalarField,
    _cumtrapz,
    _diff1_matched,
    closedness_residual_field,
    diff2_x,
    diff2_y,
    diff_x,
    diff_xy,
    diff_y,
    first_fundamental_form,
    hessian,
    integrate_exact_form,
    interior_max,
    jacobian_data,
)
from twinsurf.systems import minimal_residual

from conftest import bit_inputs, random_heightmap, same_bits, surface


def test_grid_domain_axes():
    dom = GridDomain.from_bounds(-1.0, 0.0, 1.0, 2.0, 9, 5)
    assert dom.shape == (5, 9)
    assert dom.xs[0] == -1.0 and dom.xs[-1] == pytest.approx(1.0)
    assert dom.ys[0] == 0.0 and dom.ys[-1] == pytest.approx(2.0)
    X, Y = dom.meshgrid()
    assert X.shape == (5, 9)
    assert X[0, 3] == dom.xs[3] and Y[2, 0] == dom.ys[2]


def test_grid_domain_rejects_tiny_grids():
    with pytest.raises(ValidationError):
        GridDomain(0.0, 0.0, 0.1, 0.1, 4, 9)
    with pytest.raises(ValidationError):
        GridDomain(0.0, 0.0, -0.1, 0.1, 9, 9)


@pytest.mark.parametrize("dx, dy", [(1e-160, 0.1), (0.1, 5e-300)])
def test_grid_domain_rejects_spacing_whose_square_underflows(dx, dy):
    # the second-derivative stencils divide by h^2, which would be 0 or subnormal
    with pytest.raises(ValidationError, match="squares below the float range"):
        GridDomain(0.0, 0.0, dx, dy, 9, 9)
    GridDomain(0.0, 0.0, 1e-150, 1e-150, 9, 9)


@pytest.mark.parametrize("nx, ny", [(17, 1), (1, 17)])
def test_from_bounds_counts_nodes_before_dividing(nx, ny):
    with pytest.raises(ValidationError, match="5 nodes per axis"):
        GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, nx, ny)


def test_derivatives_exact_on_quadratics(square_domain):
    X, Y = square_domain.meshgrid()
    u = 1.5 + 0.3 * X - 0.7 * Y + 0.25 * X * X + 0.4 * X * Y - 0.9 * Y * Y
    dx, dy = square_domain.dx, square_domain.dy
    # one-sided boundary stencils are second order, hence exact here too
    assert np.abs(diff_x(u, dx) - (0.3 + 0.5 * X + 0.4 * Y)).max() < 1e-12
    assert np.abs(diff_y(u, dy) - (-0.7 + 0.4 * X - 1.8 * Y)).max() < 1e-12
    assert np.abs(diff2_x(u, dx) - 0.5).max() < 1e-11
    assert np.abs(diff2_y(u, dy) + 1.8).max() < 1e-11
    assert np.abs(diff_xy(u, dx, dy) - 0.4).max() < 1e-11


def test_derivative_second_order_convergence():
    errs = []
    for nx in (33, 65):
        dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, nx, nx)
        X, Y = dom.meshgrid()
        u = np.sin(2 * X) * np.cos(Y)
        du = 2 * np.cos(2 * X) * np.cos(Y)
        errs.append(np.abs(diff_x(u, dom.dx) - du).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_derivatives_preserve_complex_dtype(square_domain):
    X, Y = square_domain.meshgrid()
    u = X + 1j * Y
    assert np.iscomplexobj(diff_x(u, square_domain.dx))
    assert np.abs(diff_x(u, square_domain.dx) - 1.0).max() < 1e-12
    assert np.abs(diff_y(u, square_domain.dy) - 1j).max() < 1e-12


def test_heightmap_gradient_fallback_and_override(square_domain):
    X, Y = square_domain.meshgrid()
    f_fd = HeightMap(square_domain, [X * Y])
    assert np.abs(f_fd.gradients[0][0] - Y).max() < 1e-12  # FD fallback
    f_ex = HeightMap(square_domain, [X * Y], [(Y + 1.0, X)])
    assert np.array_equal(f_ex.gradients[0][0], Y + 1.0)  # attached wins


def _ref_diff1_matched(v, h, axis):
    """Central differences with the ends (-5, 11, -10, 5, -1)/(2h), negated
    at the far end, each end summed from its end node inwards."""
    v = np.moveaxis(v, axis, -1)
    d = np.empty_like(v)
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    for end, s in ((0, 1), (-1, -1)):
        t = [w * s * v[..., end + s * j] for j, w in enumerate((-5.0, 11.0, -10.0, 5.0, -1.0))]
        d[..., end] = ((((t[0] + t[1]) + t[2]) + t[3]) + t[4]) / (2.0 * h)
    return np.moveaxis(d, -1, axis)


def test_heightmap_differentiates_once_at_construction():
    dom = GridDomain.from_bounds(-1.0, -0.5, 1.0, 1.5, 33, 17)
    X, Y = dom.meshgrid()
    comps = [np.sin(X) * Y, X * X - Y, np.exp(X - 2 * Y)]
    f = HeightMap(dom, comps)
    for c, (a, b) in zip(comps, f.gradients):
        # diff_x's and diff_y's interior, with error-matched ends
        assert same_bits(a, _ref_diff1_matched(c, dom.dx, 1))
        assert same_bits(b, _ref_diff1_matched(c, dom.dy, 0))
        assert same_bits(a[:, 1:-1], diff_x(c, dom.dx)[:, 1:-1])
        assert same_bits(b[1:-1], diff_y(c, dom.dy)[1:-1])


def test_heightmap_rejects_shape_mismatch(square_domain):
    with pytest.raises(ValidationError):
        HeightMap(square_domain, [np.zeros((3, 3))])


@pytest.mark.parametrize(
    "gradient",
    [np.zeros((3, 3)), np.float64(1.0), np.full((9, 9), np.nan), np.full((9, 9), np.inf)],
    ids=["shape", "0-d", "nan", "inf"],
)
def test_heightmap_rejects_bad_gradients(gradient):
    # checked at construction, not left to fail in a later evaluator
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    with pytest.raises(ValidationError, match="gradient"):
        minimal_residual(HeightMap(dom, [X * Y], [(Y, gradient)]))


@pytest.mark.parametrize("entry", ["array", "1-tuple", "3-tuple", "scalar"])
def test_heightmap_rejects_gradient_entries_that_are_not_pairs(entry):
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    bad = {"array": Y, "1-tuple": (Y,), "3-tuple": (Y, X, X), "scalar": 1.0}[entry]
    with pytest.raises(ValidationError, match="pair"):
        HeightMap(dom, [X * Y], [bad])


def test_metric_plane(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    m = first_fundamental_form(f.gradients, "euclidean")
    assert np.abs(m.E - 1.0).max() == 0.0
    assert np.abs(m.F).max() == 0.0
    assert np.abs(m.G - 1.0).max() == 0.0
    assert np.abs(m.omega - 1.0).max() == 0.0


def test_over_area_is_metric_over_omega(square_domain):
    X, Y = square_domain.meshgrid()
    m = first_fundamental_form(HeightMap(square_domain, [X * Y, np.sin(X + Y)]).gradients)
    Ew, Fw, Gw = m.over_area
    assert np.array_equal(Ew, m.E / m.omega)
    assert np.array_equal(Fw, m.F / m.omega)
    assert np.array_equal(Gw, m.G / m.omega)
    assert m.over_area is m.over_area  # taken once


def test_over_area_is_zero_at_masked_split_nodes(square_domain):
    X, _ = square_domain.meshgrid()
    # |grad| = 2|x| reaches 1 at |x| = 1/2: the outer columns are masked
    m = first_fundamental_form(HeightMap(square_domain, [X * X]).gradients, "split")
    assert m.mask.any() and not m.mask.all()
    with np.errstate(all="raise"):
        fields = m.over_area
    for v in fields:
        assert np.all(v[~m.mask] == 0.0)
        assert np.all(np.isfinite(v))
    assert np.array_equal(fields[0][m.mask], m.E[m.mask] / m.omega[m.mask])


def test_split_metric_masks_non_spacelike(square_domain):
    X, _ = square_domain.meshgrid()
    g = HeightMap(square_domain, [2.0 * X])  # gradient norm 2 > 1
    m = first_fundamental_form(g.gradients, "split")
    assert not m.mask.any()
    assert len(m.invalid_nodes) == square_domain.nx * square_domain.ny


def test_split_metric_masks_negative_definite(square_domain):
    # (2x, 2y): E = G = -3 and F = 0, a positive discriminant (9) but no
    # spacelike node
    X, Y = square_domain.meshgrid()
    m = first_fundamental_form(HeightMap(square_domain, [2.0 * X, 2.0 * Y]).gradients, "split")
    assert np.all(m.E * m.G - m.F**2 > 0)
    assert not m.mask.any()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lagrange_identity(seed):
    """omega^2 = 1 + sum alpha^2 + sum beta^2 + sum J_ij^2, any smooth map."""
    rng = np.random.default_rng(seed)
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    f = random_heightmap(rng, dom, n=int(rng.integers(1, 4)), amplitude=1.0)
    m = first_fundamental_form(f.gradients, "euclidean")
    jac = jacobian_data(f)
    ssq = 1.0 + sum(a**2 + b**2 for a, b in f.gradients)
    jsq = jac.norm**2
    scale = np.abs(m.omega**2).max()
    assert np.abs(m.omega**2 - (ssq + jsq)).max() <= 1e-12 * scale
    # equivalent form used by the angle duality
    assert np.abs(jsq - (m.omega**2 + 1.0 - m.E - m.G)).max() <= 1e-12 * scale


def test_jacobian_pairs_are_one_based(square_domain):
    X, Y = square_domain.meshgrid()
    f = HeightMap(square_domain, [0.0 * X, 0.0 * X, 0.0 * X])
    jac = jacobian_data(f)
    assert sorted(jac.pairs) == [(1, 2), (1, 3), (2, 3)]


def test_integrate_exact_form_recovers_potential(square_domain):
    X, Y = square_domain.meshgrid()
    P = ScalarField(square_domain, Y + 2 * X)  # u = x^2 + x y + y
    Q = ScalarField(square_domain, X + np.ones_like(X))
    res = integrate_exact_form(P, Q, basepoint=(4, 7))
    u = X * X + X * Y + Y
    expected = u - u[7, 4]
    assert res.values[7, 4] == 0.0
    assert np.abs(res.values - expected).max() < 1e-12


def test_integrate_then_differentiate_second_order():
    errs = []
    for nx in (33, 65):
        dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, nx, nx)
        X, Y = dom.meshgrid()
        P = ScalarField(dom, np.cos(X) * np.cos(Y))
        Q = ScalarField(dom, -np.sin(X) * np.sin(Y))  # u = sin x cos y
        u = integrate_exact_form(P, Q).values
        errs.append(np.abs(diff_x(u, dom.dx) - P.values)[1:-1, 1:-1].max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_cumulative_trapezoid_matches_scipy():
    # the potentials keep the bits of scipy's cumulative_trapezoid
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(3)
    dom = GridDomain.from_bounds(-0.3, 0.2, 1.1, 0.9, 23, 17)
    P = ScalarField(dom, rng.standard_normal(dom.shape))
    Q = ScalarField(dom, rng.standard_normal(dom.shape))
    cumx = integrate.cumulative_trapezoid(P.values, dx=dom.dx, axis=1, initial=0.0)
    cumy = integrate.cumulative_trapezoid(Q.values, dx=dom.dy, axis=0, initial=0.0)
    u = 0.5 * ((cumx[0, :][None, :] + cumy) + (cumy[:, 0][:, None] + cumx))
    u[0, 0] = 0.0
    assert np.array_equal(integrate_exact_form(P, Q).values, u)


def test_hessian_of_quadratic(square_domain):
    X, Y = square_domain.meshgrid()
    hxx, hxy, hyy = hessian(1.5 * X * X - 0.5 * X * Y + 2.0 * Y * Y, square_domain)
    for got, want in ((hxx, 3.0), (hxy, -0.5), (hyy, 4.0)):
        assert np.abs(got - want).max() < 1e-9


def test_integrate_validates_basepoint(square_domain):
    Z = ScalarField(square_domain, np.zeros(square_domain.shape))
    with pytest.raises(ValidationError):
        integrate_exact_form(Z, Z, basepoint=(99, 0))


# ---------------------------------------------------------------- bitwise oracles
# The kernels write into arrays they allocate; these are the expressions
# they replaced, which they must match bit for bit.


def _ref_diff1(v, h):
    d = np.empty_like(v, dtype=np.result_type(v, float))
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    d[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    d[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return d


def _ref_diff2(v, h):
    d = np.empty_like(v, dtype=np.result_type(v, float))
    d[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / h**2
    d[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / h**2
    d[..., -1] = (2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]) / h**2
    return d


_REF_STENCILS = {
    "diff_x": (diff_x, lambda v: _ref_diff1(v, 0.3)),
    "diff_y": (diff_y, lambda v: _ref_diff1(v.T, 0.7).T),
    "diff2_x": (diff2_x, lambda v: _ref_diff2(v, 0.3)),
    "diff2_y": (diff2_y, lambda v: _ref_diff2(v.T, 0.7).T),
    "diff_xy": (diff_xy, lambda v: _ref_diff1(_ref_diff1(v, 0.3).T, 0.7).T),
}


def _ref_cumtrapz(v, h):
    out = np.zeros_like(v)
    np.cumsum(h * (v[..., 1:] + v[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


def _ref_integrate(P, Q, dom, basepoint):
    ix, iy = basepoint
    cumx = _ref_cumtrapz(P, dom.dx)
    cumx -= cumx[:, ix][:, None]
    cumy = _ref_cumtrapz(Q.T, dom.dy).T
    cumy -= cumy[iy, :][None, :]
    u = 0.5 * ((cumx[iy, :][None, :] + cumy) + (cumy[:, ix][:, None] + cumx))
    u[iy, ix] = 0.0
    return u


def _ref_metric(h, signature):
    alphas, betas = zip(*h.gradients)
    sa2 = sum(a * a for a in alphas)
    sab = sum(a * b for a, b in zip(alphas, betas))
    sb2 = sum(b * b for b in betas)
    if signature == "euclidean":
        E, F, G = 1.0 + sa2, sab, 1.0 + sb2
    else:
        E, F, G = 1.0 - sa2, -sab, 1.0 - sb2
    disc = E * G - F * F
    mask = (E > 0) & (disc > 0)
    return E, F, G, np.sqrt(np.where(mask, disc, 0.0)), mask


def _layouts(rng, shape):
    """``bit_inputs`` of ``shape`` in every layout the stencils take:
    C-contiguous, strided, transposed (F-contiguous), and row-block and
    column-block slices of larger fields."""
    ny, nx = shape
    out = bit_inputs(rng, shape)
    for kind in ("real", "complex"):
        out[f"transposed_{kind}"] = bit_inputs(rng, (nx, ny))[kind].T
        out[f"row_block_{kind}"] = bit_inputs(rng, (ny + 6, nx))[kind][3:-3]
        out[f"column_block_{kind}"] = bit_inputs(rng, (ny, nx + 4))[kind][:, 2:-2]
    return out


@pytest.mark.parametrize("shape", [(9, 7), (33, 65), (5, 5), (17, 33), (33, 17)])
@pytest.mark.parametrize("stencil", sorted(_REF_STENCILS))
def test_stencils_match_their_reference_bit_for_bit(stencil, shape):
    fn, ref = _REF_STENCILS[stencil]
    args = (0.3, 0.7) if stencil == "diff_xy" else (0.7 if stencil.endswith("y") else 0.3,)
    for kind, v in _layouts(np.random.default_rng(11), shape).items():
        got = fn(v, *args)
        assert same_bits(got, ref(v)), kind
        assert got.flags.c_contiguous, kind  # the layout downstream kernels read


@pytest.mark.parametrize("shape", [(5, 5), (17, 33), (33, 17)])
def test_matched_stencil_matches_its_reference_in_every_layout(shape):
    for kind, v in _layouts(np.random.default_rng(14), shape).items():
        if not np.iscomplexobj(v):
            assert same_bits(_diff1_matched(v, 0.3, -1), _ref_diff1_matched(v, 0.3, 1)), kind
            assert same_bits(_diff1_matched(v, 0.7, 0), _ref_diff1_matched(v, 0.7, 0)), kind


# each kernel with the expression it replaced, (kernel, reference) per axis
_PARITY = {
    "diff_x": (lambda v, h: diff_x(v, h), lambda v, h: _ref_diff1(v, h)),
    "diff_y": (lambda v, h: diff_y(v, h), lambda v, h: _ref_diff1(v.T, h).T),
    "diff2_x": (lambda v, h: diff2_x(v, h), lambda v, h: _ref_diff2(v, h)),
    "diff2_y": (lambda v, h: diff2_y(v, h), lambda v, h: _ref_diff2(v.T, h).T),
    "matched_x": (lambda v, h: _diff1_matched(v, h, -1), lambda v, h: _ref_diff1_matched(v, h, 1)),
    "matched_y": (lambda v, h: _diff1_matched(v, h, 0), lambda v, h: _ref_diff1_matched(v, h, 0)),
    "cumtrapz_x": (lambda v, h: _cumtrapz(v, h, -1), lambda v, h: _ref_cumtrapz(v, h)),
    "cumtrapz_y": (lambda v, h: _cumtrapz(v, h, 0), lambda v, h: _ref_cumtrapz(v.T, h).T),
}


def _warned(fn, v, h):
    """fn(v, h) and whether numpy warned while it ran."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(v, h)
    return out, bool(caught)


def _extreme_fields():
    """(field, spacing) pairs.  1e306 x on 513 columns: every difference is
    in range, but a difference across a row end, scaled by 1/(2h) or 1/h^2,
    overflows.  Rows of alternating +-1e308 overflow across the row ends and
    in the reference's one-sided ends.  The checkerboard's flat sum across
    a row end (512 columns) overflows where no sum within a row does.  Row
    ends of 0.5e308 and -0.85e308 with h = 10 overflow in a second
    difference across the row end, where no one-sided end overflows."""
    x = np.linspace(-1.0, 1.0, 513)
    rows = np.arange(6)[:, None]
    row_ends = np.zeros((6, 9))
    row_ends[1, -1], row_ends[2, 0] = 0.5e308, -0.85e308
    fields = {
        "1e306 x": (np.tile(1e306 * x, (6, 1)), 2.0 / 512),
        "alternating rows": (np.where(rows % 2 == 1, -1e308, 1e308) * np.ones(513), 2.0 / 512),
        "checkerboard": (np.where((rows + np.arange(512)) % 2 == 1, -1e308, 1e308), 2.0 / 512),
        "row ends": (row_ends, 10.0),
    }
    fields["1e306 x complex"] = (fields["1e306 x"][0] * (1.0 - 0.5j), 2.0 / 512)
    fields.update({f"{k}, transposed": (v.T, h) for k, (v, h) in list(fields.items())})
    return fields


@pytest.mark.parametrize("kernel", sorted(_PARITY))
def test_kernels_warn_exactly_where_their_reference_warns(kernel):
    fn, ref = _PARITY[kernel]
    for kind, (v, h) in _extreme_fields().items():
        if kernel.startswith("cumtrapz") and np.iscomplexobj(v):
            continue
        (got, warned), (want, ref_warned) = _warned(fn, v, h), _warned(ref, v, h)
        assert warned == ref_warned, kind
        assert same_bits(got, want), kind
    # finite fields in range warn nowhere
    for kind, v in _layouts(np.random.default_rng(15), (17, 33)).items():
        if not (kernel.startswith(("cumtrapz", "matched")) and np.iscomplexobj(v)):
            assert not _warned(fn, v, 0.3)[1], kind


def test_interior_max_matches_its_reference_bit_for_bit():
    # the expression it replaced: NaN propagates, +-inf hold and an all-zero
    # interior reads +0.0, which JSON prints apart from -0.0
    inputs = bit_inputs(np.random.default_rng(13), (9, 12))
    cases = {kind: v for kind, v in inputs.items() if not np.iscomplexobj(v)}
    for fill in (-np.nan, np.inf, -np.inf, -0.0, 0.0):
        cases[f"all {fill}"] = np.full((6, 7), fill)
        v = inputs["real"].copy()
        v[4, 5] = fill
        cases[f"one {fill}"] = v
    for kind, v in cases.items():
        ref = float(np.abs(v[1:-1, 1:-1]).max())
        assert same_bits(np.float64(interior_max(v)), np.float64(ref)), kind


@pytest.mark.parametrize("axis", [-1, 0])
def test_cumtrapz_matches_its_reference_bit_for_bit(axis):
    for kind, v in bit_inputs(np.random.default_rng(12), (17, 33)).items():
        if np.iscomplexobj(v):
            continue
        ref = _ref_cumtrapz(v, 0.3) if axis == -1 else _ref_cumtrapz(v.T, 0.3).T
        assert same_bits(_cumtrapz(v, 0.3, axis), ref), kind


@pytest.mark.parametrize("name", ["plane", "catenoid", "helicoid", "scherk", "holomorphic"])
def test_integration_matches_its_reference_bit_for_bit(name):
    f = surface(name, 33, 17)
    dom = f.domain
    P, Q = f.gradients[0]
    ref_closed = np.abs(_ref_diff1(P.T, dom.dy).T - _ref_diff1(Q, dom.dx))
    assert same_bits(closedness_residual_field(P, Q, dom), ref_closed)
    Pf, Qf = ScalarField(dom, P), ScalarField(dom, Q)
    # corners, edges and interior nodes
    for basepoint in [(0, 0), (32, 0), (0, 16), (32, 16), (11, 0), (0, 9), (32, 4), (20, 16), (5, 3)]:
        u = integrate_exact_form(Pf, Qf, basepoint)
        assert same_bits(u.values, _ref_integrate(P, Q, dom, basepoint)), basepoint


@pytest.mark.parametrize("name", ["catenoid", "holomorphic", "quadratic_gradient"])
@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_metric_and_jacobians_match_their_reference_bit_for_bit(name, signature):
    f = surface(name, 17, 17)
    metric = first_fundamental_form(f.gradients, signature)
    E, F, G, omega, mask = _ref_metric(f, signature)
    if name == "quadratic_gradient" and signature == "split":
        assert not mask.any()  # ||J|| = 1: omega is zeroed at every node
    got = (metric.E, metric.F, metric.G, metric.omega)
    assert all(same_bits(a, b) for a, b in zip(got, (E, F, G, omega)))
    assert np.array_equal(metric.mask, mask)
    jac = jacobian_data(f)
    if jac.pairs:
        assert same_bits(jac.norm, np.sqrt(sum(J * J for J in jac.pairs.values())))


@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_metric_of_partly_masked_maps_matches_its_reference_bit_for_bit(signature):
    # split: |grad| = 1.6|x| reaches 1 inside the square, so some nodes are
    # masked and zeroed, and a -0.0 gradient enters the sums
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 33)
    X, Y = dom.meshgrid()
    maps = [
        HeightMap(dom, [0.8 * X * X, -0.0 * Y]),
        HeightMap(dom, [0.8 * X * X], [(1.6 * X, np.full(dom.shape, -0.0))]),
        random_heightmap(np.random.default_rng(4), dom, n=3, amplitude=0.6),
    ]
    for f in maps:
        metric = first_fundamental_form(f.gradients, signature)
        E, F, G, omega, mask = _ref_metric(f, signature)
        got = (metric.E, metric.F, metric.G, metric.omega)
        assert all(same_bits(a, b) for a, b in zip(got, (E, F, G, omega)))
        assert np.array_equal(metric.mask, mask)
        assert mask.all() == (signature == "euclidean")


@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_a_row_block_of_gradients_gets_its_rows_of_the_metric_bit_for_bit(signature):
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 33)
    f = random_heightmap(np.random.default_rng(5), dom, n=2, amplitude=0.6)
    whole = first_fundamental_form(f.gradients, signature)
    for rows in (slice(0, 7), slice(7, 31), slice(31, 33)):
        block = first_fundamental_form([(a[rows], b[rows]) for a, b in f.gradients], signature)
        for k in ("E", "F", "G", "omega"):
            assert same_bits(getattr(block, k), getattr(whole, k)[rows])
        assert np.array_equal(block.mask, whole.mask[rows])


def test_metric_sums_start_from_zero_as_python_sum():
    # a lone product -0.0 * 1.0: Python's sum from 0 reads 0.0, so F does
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    f = HeightMap(dom, [np.zeros(dom.shape)], [(np.full(dom.shape, -0.0), np.ones(dom.shape))])
    metric = first_fundamental_form(f.gradients)
    assert same_bits(metric.F, _ref_metric(f, "euclidean")[1])
    assert not np.signbit(metric.F).any()
