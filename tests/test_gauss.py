import numpy as np
import pytest

import twinsurf.gauss
from twinsurf.catalog import make_surface
from twinsurf.errors import DegenerateFit, NotUnimodular, SignChange, ValidationError
from twinsurf.fields import GridDomain, HeightMap, ScalarField, first_fundamental_form
from twinsurf.gauss import (
    _live_tiles,
    gauss_map,
    hyperplane_fit,
    jorgens_gauss,
    normalize_projective,
    planarity_score,
    quadric_residual,
)
from twinsurf.slag import sl_lift

from conftest import jorgens_trace_case, random_heightmap, same_bits, surface


def gauss_map_alt(f: HeightMap) -> np.ndarray:
    """The equivalent [1 - iF/w, iE/w, ...] form; cross-oracle for gauss_map."""
    metric = first_fundamental_form(f.gradients, "euclidean")
    z1 = 1.0 - 1j * metric.F / metric.omega
    z2 = 1j * metric.E / metric.omega
    comps = [z1, z2]
    for a, b in f.gradients:
        comps.append(z1 * a + z2 * b)
    return normalize_projective(comps)


def test_gauss_field_is_one_array():
    f = surface("catenoid", 17, 9)
    g = gauss_map(f)
    assert g.shape == (9, 17, 3) and g.dtype == complex
    # planarity_score reads the nodes as rows of g without a copy
    assert g.flags.c_contiguous


def test_flat_graph_gauss_map(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    g = gauss_map(f)
    assert g.shape[-1] == 3
    assert quadric_residual(g) < 1e-14
    assert planarity_score(g) < 1e-14


def test_quadric_membership_random_maps(square_domain):
    rng = np.random.default_rng(99)
    for _ in range(5):
        f = random_heightmap(rng, square_domain, n=2, amplitude=0.8)
        assert quadric_residual(gauss_map(f)) < 1e-12
        assert quadric_residual(gauss_map_alt(f)) < 1e-12


def test_two_chart_forms_agree_projectively():
    f = surface("catenoid", 33, 33)
    a = gauss_map(f)
    b = gauss_map_alt(f)
    inner = np.abs(np.einsum("yxk,yxk->yx", a.conj(), b))
    assert np.abs(inner - 1.0).max() < 1e-10


def test_normalize_projective_gauge():
    z = normalize_projective([np.full((5, 5), 2j), np.full((5, 5), 2.0)])
    assert z.shape == (5, 5, 2)
    norm = np.sum(np.abs(z) ** 2, axis=-1)
    assert np.abs(norm - 1.0).max() < 1e-14
    # first non-negligible component is rotated to the positive real axis
    assert np.abs(z[..., 0].imag).max() < 1e-14
    assert z[..., 0].real.min() > 0


def test_jorgens_field_of_rotational_quadratic(square_domain):
    X, Y = square_domain.meshgrid()
    F = ScalarField(square_domain, (X * X + Y * Y) / 2)
    g = jorgens_gauss(F)
    # field is constant [1, i, 1, i] up to gauge
    assert planarity_score(g) < 1e-12
    fit = hyperplane_fit(g, 2, 1)
    assert abs(fit.lam - 1j) < 1e-12 and fit.residual < 1e-12
    assert fit.is_nonreal


def test_jorgens_rejects_non_unimodular(square_domain):
    X, _ = square_domain.meshgrid()
    with pytest.raises(NotUnimodular):
        jorgens_gauss(ScalarField(square_domain, X * X))


@pytest.mark.parametrize("potential", ["zero", "cubic"])
def test_jorgens_refuses_a_trace_that_vanishes_or_changes_sign(potential):
    F, nodes = jorgens_trace_case(potential)
    with pytest.raises(SignChange) as err:
        jorgens_gauss(F)
    assert np.array_equal(err.value.nodes, nodes)


def test_hyperplane_fit_degenerate_direction(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    g = gauss_map(f)  # third component vanishes identically
    with pytest.raises(DegenerateFit):
        hyperplane_fit(g, 1, 3)


def test_holomorphic_graph_has_nonreal_hyperplane_relation():
    g = gauss_map(surface("holomorphic", 65, 65))
    fit = hyperplane_fit(g, 3, 4)
    h = 0.6 / 64
    assert fit.residual <= 100 * h * h
    assert abs(fit.lam.imag) > 0.1


def test_catenoid_has_no_hyperplane_relation():
    g = gauss_map(surface("catenoid", 65, 33))
    fit = hyperplane_fit(g, 1, 3)
    assert fit.residual > 0.1  # honest O(1) residual, no degeneracy
    assert planarity_score(g) > 0.2  # and the map is genuinely non-constant


def test_component_indexing_is_one_based(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    g = gauss_map(f)  # [1, i, 0] / sqrt 2 at every node
    fit = hyperplane_fit(g, 2, 1)
    assert abs(fit.lam - 1j) < 1e-15 and fit.residual < 1e-15
    with pytest.raises(ValidationError, match="component index 0 out of range 1..3"):
        hyperplane_fit(g, 0, 1)
    # i is checked before j
    with pytest.raises(ValidationError, match="component index 4 out of range 1..3"):
        hyperplane_fit(g, 4, 0)


def _brute_planarity(z):
    """Max of ||q - <p,q> p|| over all pairs of rows of z."""
    worst = 0.0
    for p in z:
        rej = z - (z @ p.conj())[:, None] * p
        worst = max(worst, float(np.linalg.norm(rej, axis=1).max()))
    return worst


def test_planarity_matches_brute_force_on_random_maps(square_domain, monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(3):
        g = gauss_map(random_heightmap(rng, square_domain, n=2, amplitude=0.8))
        z = g.reshape(-1, g.shape[-1])
        assert abs(planarity_score(g) - _brute_planarity(z)) <= 1e-15
        # subsample path: planarity_score's fixed-seed node choice
        idx = np.random.default_rng(2024).choice(z.shape[0], size=500, replace=False)
        idx.sort()
        with monkeypatch.context() as m:
            m.setattr(twinsurf.gauss, "_MAX_NODES", 500)
            assert abs(planarity_score(g) - _brute_planarity(z[idx])) <= 1e-15


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("eps", [1e-9, 1e-8])
def test_planarity_of_nearly_constant_map_uses_rejection_form(square_domain, seed, eps):
    # 1 - |<p,q>|^2 is quantised to ~1e-16 here, so the row holding the
    # maximum need not hold the largest Gram value
    rng = np.random.default_rng(seed)
    shape = square_domain.shape
    comps = [
        c + eps * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for c in (1.0, 1j, 1.0, 1j)
    ]
    g = normalize_projective(comps)
    z = g.reshape(-1, 4)
    ref = _brute_planarity(z)
    gram = np.sqrt(np.max(1.0 - np.abs(z.conj() @ z.T) ** 2))
    assert abs(gram - ref) > 1e-10  # the Gram form alone is off
    assert abs(planarity_score(g) - ref) <= 1e-15


def _gram_band_planarity(z):
    """All-pairs oracle: a Gram pass over every pair finds each row's
    largest 1 - |<p,q>|^2, and the rows within 1e-12 of the largest get the
    rejection form in whole 128-row chunk products, as planarity_score."""
    near = [np.abs(z[s : s + 512].conj() @ z.T).min(axis=1) for s in range(0, len(z), 512)]
    far = 1.0 - np.concatenate(near) ** 2
    band = far >= far.max() - 1e-12
    worst = 0.0
    for start in range(0, len(z), 128):
        rows = np.flatnonzero(band[start : start + 128])
        if rows.size:
            block = z[start : start + 128]
            inner = (block.conj() @ z.T)[rows]
            rej = z[None, :, :] - inner[:, :, None] * block[rows, None, :]
            worst = max(worst, float(np.linalg.norm(rej, axis=-1).max()))
    return worst


_CATALOG = ["catenoid", "helicoid", "scherk", "holomorphic"]


@pytest.mark.parametrize("n", [33, 65, 129])
@pytest.mark.parametrize("name", _CATALOG)
def test_planarity_equals_the_all_pairs_pass(name, n, monkeypatch):
    monkeypatch.setattr(twinsurf.gauss, "_MAX_NODES", n * n)
    g = gauss_map(surface(name, n, n))
    z = g.reshape(-1, g.shape[-1])
    assert planarity_score(g) == _gram_band_planarity(z)


@pytest.mark.parametrize("name", _CATALOG)
def test_planarity_subsample_equals_the_all_pairs_pass_at_513(name):
    g = gauss_map(surface(name, 513, 513))
    idx = np.random.default_rng(2024).choice(513 * 513, size=4096, replace=False)
    idx.sort()
    z = g.reshape(-1, g.shape[-1])[idx]
    assert planarity_score(g) == _gram_band_planarity(z)


@pytest.mark.parametrize("nx, ny", [(5, 5), (7, 5), (9, 13)])
def test_planarity_on_grids_with_empty_tiles(nx, ny):
    # fewer than 8 nodes on an axis leaves some of the 8 x 8 tiles empty
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, nx, ny)
    g = gauss_map(random_heightmap(np.random.default_rng(nx * ny), dom, n=2, amplitude=0.8))
    z = g.reshape(-1, g.shape[-1])
    assert planarity_score(g) == _gram_band_planarity(z)


def test_planarity_reads_an_orthogonal_pair():
    # the Gauss image of z^2 holds orthogonal points at z = +-1/2
    dom = GridDomain.from_bounds(-0.75, -0.75, 0.75, 0.75, 65, 65)
    g = gauss_map(make_surface("holomorphic", None, dom))
    assert planarity_score(g) > 0.9999999


def test_tile_bounds_prune_most_tile_pairs():
    g = gauss_map(surface("catenoid", 129, 129))
    z = g.reshape(-1, g.shape[-1])
    iy, ix = np.divmod(np.arange(len(z)), 129)
    groups, live = _live_tiles(z, iy, ix, g.shape[:2])
    assert len(groups) == 64 and sorted(np.concatenate(groups)) == list(range(len(z)))
    assert 0 < live.mean() < 0.1


# ---------------------------------------------------------------- bitwise oracles
# the field's arithmetic on the whole grid: the real and imaginary planes
# over the node norm (their squares added in plane order), and the gauge
# on the nodes whose z_1 is not real and above 1e-13


def _ref_field(planes):
    norm = np.sqrt(sum(p * p for p in planes))
    z = np.stack([np.broadcast_to(p / norm, norm.shape) for p in planes], axis=-1).view(complex)
    turn = (z[..., 0].imag != 0) | ~(z[..., 0].real > 1e-13)
    w = z[turn]
    phase = np.ones(w.shape[:-1], dtype=complex)
    fixed = np.zeros(w.shape[:-1], dtype=bool)
    for k in range(w.shape[-1]):
        sel = (~fixed) & (np.abs(w[..., k]) > 1e-13)
        wk = w[..., k][sel]
        phase[sel] = np.conj(wk) / np.abs(wk)
        fixed |= sel
    z[turn] = w * phase[..., None]
    return z


def _ref_normalize_projective(components):
    comps = [np.asarray(c, dtype=complex) for c in components]
    return _ref_field([p for c in comps for p in (c.real, c.imag)])


def _ref_gauss_map(f):
    _, Fw, Gw = first_fundamental_form(f.gradients, "euclidean").over_area
    planes = [Gw, 0.0, 0.0 - Fw, 1.0]
    for a, b in f.gradients:
        planes += [Gw * a - Fw * b, b]
    return _ref_field(planes)


# tolerance oracles: the complex formula normalized by complex abs, and
# every node gauged


def _complex_normalize_projective(components):
    z = np.stack([np.asarray(c, dtype=complex) for c in components], axis=-1)
    norm = np.sqrt(np.sum(np.abs(z) ** 2, axis=-1))
    z = z / norm[..., None]
    phase = np.ones(z.shape[:-1], dtype=complex)
    fixed = np.zeros(z.shape[:-1], dtype=bool)
    for k in range(z.shape[-1]):
        sel = (~fixed) & (np.abs(z[..., k]) > 1e-13)
        zk = z[..., k][sel]
        phase[sel] = np.conj(zk) / np.abs(zk)
        fixed |= sel
    return z * phase[..., None]


def _complex_gauss_map(f):
    _, Fw, Gw = first_fundamental_form(f.gradients, "euclidean").over_area
    z1 = Gw + 0j
    z2 = 1j - Fw
    return _complex_normalize_projective(
        [z1, z2] + [z1 * a + z2 * b for a, b in f.gradients]
    )


_ULP4 = 4 * np.finfo(float).eps  # 4 ulp of 1


def _within_4_ulp_of_the_complex_formula(f):
    g = gauss_map(f)
    assert np.abs(np.linalg.norm(g, axis=-1) - 1.0).max() <= _ULP4
    assert np.abs(g.view(float) - _complex_gauss_map(f).view(float)).max() <= _ULP4


@pytest.mark.parametrize("n", [33, 129, 513])
@pytest.mark.parametrize("name", ["plane"] + _CATALOG)
def test_gauss_field_is_within_4_ulp_of_the_complex_formula(name, n):
    _within_4_ulp_of_the_complex_formula(surface(name, n, n))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_gauss_field_of_random_maps_is_within_4_ulp_of_the_complex_formula(n):
    # rows of 2(n + 2) floats: 6, 8 and 16; the n = 2 planes are views of
    # 64-byte stride
    rng = np.random.default_rng(n)
    for ny in (33, 97):
        dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 65, ny)
        _within_4_ulp_of_the_complex_formula(random_heightmap(rng, dom, n=n, amplitude=2.0))


def test_a_steep_map_is_gauged_on_its_second_component():
    # with f_x = 1e14 and f_y = 0, z_1 = 1e-14/sqrt 2 falls under the gauge
    # threshold, so z_2 = i/sqrt 2 is turned to 1/sqrt 2; the steep rows end
    # inside a row block
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 2 * twinsurf.gauss._BLOCK_ROWS + 5)
    X, Y = dom.meshgrid()
    fx = np.where(np.arange(dom.ny)[:, None] < twinsurf.gauss._BLOCK_ROWS + 3, 1e14, X)
    f = HeightMap(dom, [np.zeros(dom.shape)], [(fx, np.zeros(dom.shape))])
    g = gauss_map(f)
    steep = g[: twinsurf.gauss._BLOCK_ROWS + 3]
    assert np.abs(steep[..., 0]).max() < 1e-13
    assert (steep[..., 1].imag == 0).all() and (steep[..., 1].real > 0.7).all()
    assert same_bits(g, _ref_gauss_map(f))
    assert np.abs(g - _complex_gauss_map(f)).max() <= _ULP4


@pytest.mark.parametrize("m", [2, 3, 4, 7, 8, 9])
def test_normalize_projective_matches_its_reference_bit_for_bit(m):
    rng = np.random.default_rng(m)
    comps = [
        rng.standard_normal((17, 33)) * 10.0 ** rng.integers(-6, 7, (17, 33))
        + 1j * rng.standard_normal((17, 33))
        for _ in range(m)
    ]
    comps[0][:4, :4] = 0.0  # the gauge falls to a later component there
    comps[0][4, :4] = -0.0
    comps[-1][:2, :2] = 1e-15  # below the gauge threshold
    assert same_bits(normalize_projective(comps), _ref_normalize_projective(comps))


@pytest.mark.parametrize("rest", [1, 2])
def test_row_blocks_equal_one_whole_grid_block_bit_for_bit(rest, monkeypatch):
    # the last block holds ``rest`` rows; a block height of ny normalizes
    # the whole grid in one block
    ny = 3 * twinsurf.gauss._BLOCK_ROWS + rest
    maps = [surface(name, 33, ny) for name in ("catenoid", "scherk", "holomorphic")]
    lift = sl_lift(maps[-1]).h
    rng = np.random.default_rng(rest)
    comps = [rng.standard_normal((ny, 33)) + 1j * rng.standard_normal((ny, 33)) for _ in range(4)]
    comps[0][::3] = 0.0  # the gauge falls to a later component on every third row

    def fields():
        return [gauss_map(f) for f in maps] + [jorgens_gauss(lift), normalize_projective(comps)]

    blocked = fields()
    monkeypatch.setattr(twinsurf.gauss, "_BLOCK_ROWS", ny)
    assert all(same_bits(a, b) for a, b in zip(blocked, fields()))


def test_gauss_map_matches_its_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 33)
    maps = [surface(name, 33, 17) for name in ("plane", "catenoid", "scherk", "holomorphic")]
    maps += [random_heightmap(rng, dom, n=n) for n in (1, 6, 7)]
    for f in maps:
        g = gauss_map(f)
        assert same_bits(g, _ref_gauss_map(f))
        assert g.flags.c_contiguous
