import numpy as np
import pytest

import twinsurf.gauss
from twinsurf.catalog import make_surface
from twinsurf.errors import DegenerateFit, NotUnimodular, ValidationError
from twinsurf.fields import GridDomain, HeightMap, ScalarField, first_fundamental_form
from twinsurf.gauss import (
    ProjectivePointField,
    _live_tiles,
    gauss_map,
    hyperplane_fit,
    jorgens_gauss,
    normalize_projective,
    planarity_score,
    quadric_residual,
)

from conftest import random_heightmap, surface


def gauss_map_alt(f: HeightMap) -> ProjectivePointField:
    """The equivalent [1 - iF/w, iE/w, ...] form; cross-oracle for gauss_map."""
    metric = first_fundamental_form(f, "euclidean")
    z1 = 1.0 - 1j * metric.F / metric.omega
    z2 = 1j * metric.E / metric.omega
    comps = [z1, z2]
    for k in range(f.n):
        comps.append(z1 * f.alpha(k) + z2 * f.beta(k))
    return ProjectivePointField(f.domain, normalize_projective(comps))


def test_flat_graph_gauss_map(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    g = gauss_map(f)
    assert g.n_plus_2 == 3
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
    a = gauss_map(f).stack()
    b = gauss_map_alt(f).stack()
    inner = np.abs(np.einsum("yxk,yxk->yx", a.conj(), b))
    assert np.abs(inner - 1.0).max() < 1e-10


def test_normalize_projective_gauge():
    comps = normalize_projective([np.full((5, 5), 2j), np.full((5, 5), 2.0)])
    norm = sum(np.abs(c) ** 2 for c in comps)
    assert np.abs(norm - 1.0).max() < 1e-14
    # first non-negligible component is rotated to the positive real axis
    assert np.abs(comps[0].imag).max() < 1e-14
    assert comps[0].real.min() > 0


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
    g = gauss_map(f)
    assert g.component(1) is g.components[0]
    with pytest.raises(ValidationError):
        hyperplane_fit(g, 0, 1)


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
        z = g.stack().reshape(-1, g.n_plus_2)
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
    g = ProjectivePointField(square_domain, normalize_projective(comps))
    z = g.stack().reshape(-1, 4)
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
    z = g.stack().reshape(-1, g.n_plus_2)
    assert planarity_score(g) == _gram_band_planarity(z)


@pytest.mark.parametrize("name", _CATALOG)
def test_planarity_subsample_equals_the_all_pairs_pass_at_513(name):
    g = gauss_map(surface(name, 513, 513))
    idx = np.random.default_rng(2024).choice(513 * 513, size=4096, replace=False)
    idx.sort()
    z = g.stack().reshape(-1, g.n_plus_2)[idx]
    assert planarity_score(g) == _gram_band_planarity(z)


@pytest.mark.parametrize("nx, ny", [(5, 5), (7, 5), (9, 13)])
def test_planarity_on_grids_with_empty_tiles(nx, ny):
    # fewer than 8 nodes on an axis leaves some of the 8 x 8 tiles empty
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, nx, ny)
    g = gauss_map(random_heightmap(np.random.default_rng(nx * ny), dom, n=2, amplitude=0.8))
    z = g.stack().reshape(-1, g.n_plus_2)
    assert planarity_score(g) == _gram_band_planarity(z)


def test_planarity_reads_an_orthogonal_pair():
    # the Gauss image of z^2 holds orthogonal points at z = +-1/2
    dom = GridDomain.from_bounds(-0.75, -0.75, 0.75, 0.75, 65, 65)
    g = gauss_map(make_surface("holomorphic", None, dom))
    assert planarity_score(g) > 0.9999999


def test_tile_bounds_prune_most_tile_pairs():
    g = gauss_map(surface("catenoid", 129, 129))
    z = g.stack().reshape(-1, g.n_plus_2)
    iy, ix = np.divmod(np.arange(len(z)), 129)
    groups, live = _live_tiles(z, iy, ix, g.domain.shape)
    assert len(groups) == 64 and sorted(np.concatenate(groups)) == list(range(len(z)))
    assert 0 < live.mean() < 0.1
