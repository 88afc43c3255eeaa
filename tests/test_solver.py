import numpy as np
import pytest

import twinsurf.solver
from twinsurf.catalog import make_surface
from twinsurf.errors import MaxIterations, SpacelikeUnreachable, ValidationError
from twinsurf.fields import GridDomain, first_fundamental_form
from twinsurf.solver import _OUTER_TOL, solve_maximal, solve_minimal
from twinsurf.twin import twin_forward

from conftest import same_bits, surface


def test_zero_boundary_gives_zero_solution():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    res = solve_minimal(dom, [np.zeros(dom.shape)])
    assert np.abs(res.surface.components[0]).max() < 1e-9


def test_affine_boundary_recovered_in_two_iterations():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    exact = 0.4 * X - 0.7 * Y + 0.2
    res = solve_minimal(dom, [exact.copy()])
    assert res.outer_iterations <= 2
    assert np.abs(res.surface.components[0] - exact).max() < 1e-8


def test_interior_of_boundary_data_is_ignored():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    exact = 0.4 * X - 0.7 * Y
    garbled = exact.copy()
    garbled[1:-1, 1:-1] = 1e6  # interior values must not matter
    res = solve_minimal(dom, [garbled])
    assert np.abs(res.surface.components[0] - exact).max() < 1e-8


def test_scherk_dirichlet_recovery():
    f = surface("scherk", 65, 65)
    res = solve_minimal(f.domain, [f.components[0].copy()])
    err = np.abs(res.surface.components[0] - f.components[0])[1:-1, 1:-1].max()
    assert err <= 1e-3
    from twinsurf.twin import default_tol
    assert res.residual_report.max_abs("scaled") <= default_tol(f.domain)


def test_maximal_affine_boundary():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    exact = 0.3 * X + 0.2 * Y
    res = solve_maximal(dom, [exact.copy()])
    assert res.outer_iterations <= 2
    assert np.abs(res.surface.components[0] - exact).max() < 1e-8


def test_maximal_rejects_negative_definite_boundary():
    # boundary data (2x, 2y) has E = G = -3 with discriminant 9: the
    # transfinite guess is negative definite, not spacelike
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    with pytest.raises(SpacelikeUnreachable):
        solve_maximal(dom, [2.0 * X, 2.0 * Y])


def test_maximal_twin_of_catenoid():
    pair = twin_forward(surface("catenoid", 65, 33))
    g = pair.g
    res = solve_maximal(g.domain, [c.copy() for c in g.components])
    err = np.abs(res.surface.components[0] - g.components[0])[1:-1, 1:-1].max()
    assert err <= 2e-3


@pytest.mark.parametrize(
    "system, name",
    [("minimal", "catenoid"), ("minimal", "helicoid"), ("maximal", "catenoid")],
)
def test_dirichlet_recovery_is_second_order(system, name):
    # unlike Scherk, these are not separable, so the Coons-patch initial
    # guess is far from the solution and Picard has to do the work
    errors = []
    for n in (33, 65, 129):
        f = surface(name, n, n)
        exact = f if system == "minimal" else twin_forward(f).g
        solve = solve_minimal if system == "minimal" else solve_maximal
        res = solve(exact.domain, [c.copy() for c in exact.components])
        diff = res.surface.components[0] - exact.components[0]
        errors.append(float(np.abs(diff[1:-1, 1:-1]).max()))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_maximal_rejects_non_spacelike_boundary():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(SpacelikeUnreachable):
        solve_maximal(dom, [2.0 * X])  # gradient norm 2 everywhere


def test_boundary_shape_validated():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    with pytest.raises(ValidationError):
        solve_minimal(dom, [np.zeros((5, 5))])


def test_options_respected():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    with pytest.raises(MaxIterations):
        solve_minimal(dom, [np.log(np.cos(0.5 * X) / np.cos(0.5 * Y))], max_outer=1)


def test_stalled_residual_raises_max_iterations(monkeypatch):
    # with tolerance 0 no step converges: only the stall test ends the loop,
    # once rounding keeps the residual from falling after a fresh factor
    monkeypatch.setattr(twinsurf.solver, "_OUTER_TOL", 0.0)
    f = surface("scherk", 33, 33)
    with pytest.raises(MaxIterations, match="residual stalled"):
        solve_minimal(f.domain, [f.components[0].copy()], max_outer=50)


def test_oscillating_residual_is_not_a_stall():
    # near Scherk's singular lines the residual rises on some steps while
    # the iteration still converges (77 steps at 65^2)
    a = np.pi / 2 - 0.03
    dom = GridDomain.from_bounds(-a, -a, a, a, 65, 65)
    f = make_surface("scherk", None, dom)
    res = solve_minimal(dom, [f.components[0].copy()])
    assert res.update_history[-1] < _OUTER_TOL


@pytest.mark.parametrize("system, iterations", [("minimal", 8), ("maximal", 6)])
def test_one_factorisation_per_solve(monkeypatch, system, iterations):
    calls = []
    splu = twinsurf.solver.splu
    monkeypatch.setattr(
        twinsurf.solver, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k)
    )
    f = surface("catenoid", 65, 65)
    exact = f if system == "minimal" else twin_forward(f).g
    solve = solve_minimal if system == "minimal" else solve_maximal
    res = solve(exact.domain, [c.copy() for c in exact.components])
    assert len(calls) == 1
    assert res.outer_iterations == iterations


def _scherk_square(n, margin):
    a = np.pi / 2 - margin
    dom = GridDomain.from_bounds(-a, -a, a, a, n, n)
    return make_surface("scherk", None, dom)


@pytest.mark.parametrize(
    "name, first", [("catenoid", 5), ("helicoid", 5), ("scherk", 5), ("square", 9)]
)
def test_factored_stencil_points(monkeypatch, name, first):
    # the first factor drops the mixed term where max |F| / sqrt(E G) <= 1/2:
    # the catalog defaults read 0.17 to 0.31, the square 0.89; with
    # tolerance 0 the iteration stalls, refactoring at every late step
    monkeypatch.setattr(twinsurf.solver, "_OUTER_TOL", 0.0)
    keys = []
    factor = twinsurf.solver._factor
    monkeypatch.setattr(
        twinsurf.solver, "_factor", lambda w: keys.append(sorted(w)) or factor(w)
    )
    f = _scherk_square(65, 0.3) if name == "square" else surface(name, 33, 33)
    with pytest.raises(MaxIterations, match="residual stalled"):
        solve_minimal(f.domain, [c.copy() for c in f.components], max_outer=60)
    assert len(keys[0]) == first
    if first == 5:
        assert keys[0] == sorted([(0, 0), (0, -1), (0, 1), (-1, 0), (1, 0)])
    assert len(keys) > 1 and all(len(k) == 9 for k in keys[1:])


def _both_paths(monkeypatch, solve, f):
    """The default solve of f and one whose first factor is forced to 9 points."""
    default = solve(f.domain, [c.copy() for c in f.components])
    monkeypatch.setattr(twinsurf.solver, "_mixed_ratio", lambda met: np.inf)
    nine = solve(f.domain, [c.copy() for c in f.components])
    return default, nine


@pytest.mark.parametrize("system", ["minimal", "maximal"])
def test_five_point_first_factor_reaches_the_same_fixed_point(monkeypatch, system):
    f = surface("catenoid", 65, 65)
    exact = f if system == "minimal" else twin_forward(f).g
    solve = solve_minimal if system == "minimal" else solve_maximal
    default, nine = _both_paths(monkeypatch, solve, exact)
    for u, v in zip(default.surface.components, nine.surface.components):
        assert np.abs(u - v).max() <= 1e-9 * max(1.0, np.abs(v).max())


def test_steep_square_keeps_the_nine_point_path(monkeypatch):
    default, nine = _both_paths(monkeypatch, solve_minimal, _scherk_square(65, 0.3))
    assert same_bits(default.surface.components[0], nine.surface.components[0])
    assert default.update_history == nine.update_history


@pytest.mark.parametrize("system, name", [("minimal", "scherk"), ("maximal", "catenoid")])
def test_result_is_discrete_fixed_point(system, name):
    # G u_xx - 2 F u_xy + E u_yy by central differences at the metric of
    # the returned surface itself, scaled as the solver's stop rule is
    f = surface(name, 65, 65)
    exact = f if system == "minimal" else twin_forward(f).g
    solve = solve_minimal if system == "minimal" else solve_maximal
    res = solve(exact.domain, [c.copy() for c in exact.components])
    dom = res.surface.domain
    met = first_fundamental_form(
        res.surface, "euclidean" if system == "minimal" else "split"
    )
    E, F, G = (a[1:-1, 1:-1] for a in (met.E, met.F, met.G))
    diag = float(np.max(np.abs(2.0 * (G / dom.dx**2 + E / dom.dy**2))))
    for u in res.surface.components:
        u_xx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / dom.dx**2
        u_yy = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dom.dy**2
        u_xy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * dom.dx * dom.dy)
        r = np.abs(G * u_xx - 2.0 * F * u_xy + E * u_yy).max()
        assert r / diag / max(1.0, np.abs(u).max()) <= _OUTER_TOL
