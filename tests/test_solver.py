import numpy as np
import pytest

import twinsurf.solver
from twinsurf.catalog import make_surface
from twinsurf.errors import MaxIterations, SpacelikeUnreachable, ValidationError
from twinsurf.fields import GridDomain, first_fundamental_form
from twinsurf.solver import _OUTER_TOL, _poisson, _sines, solve_maximal, solve_minimal
from twinsurf.twin import twin_forward

from conftest import surface


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
    from twinsurf.systems import default_tol
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


def _grid_arrays(obj):
    # the 2-D arrays obj holds, through its attributes and containers
    if isinstance(obj, np.ndarray):
        return [obj] if obj.ndim == 2 else []
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = vars(obj).values() if hasattr(obj, "__dict__") else []
    return [a for item in items for a in _grid_arrays(item)]


@pytest.mark.parametrize("solve", [solve_minimal, solve_maximal])
def test_a_result_holds_no_grid_array_but_its_surface(solve):
    # its residual report, walked through its attributes, holds the
    # report's numbers, not the solution's fields, scale or mask
    f = surface("catenoid", 33, 33)
    exact = f if solve is solve_minimal else twin_forward(f).g
    result = solve(exact.domain, [c.copy() for c in exact.components])
    assert _grid_arrays(result.surface)
    held = {k: v for k, v in vars(result).items() if k != "surface"}
    assert _grid_arrays(held) == []


def test_maximal_rejects_non_spacelike_boundary():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(SpacelikeUnreachable):
        solve_maximal(dom, [2.0 * X])  # gradient norm 2 everywhere


def _damped(a, monkeypatch):
    # g = a cos(3x) cos(y) on [-1, 1]^2 at 17^2: the solver's metric
    # evaluations, one for the initial guess and one per trial step
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    evals = []

    def counted(*args):
        evals.append(args)
        return first_fundamental_form(*args)

    monkeypatch.setattr(twinsurf.solver, "first_fundamental_form", counted)
    return lambda: solve_maximal(dom, [a * np.cos(3 * X) * np.cos(Y)]), evals


@pytest.mark.parametrize("a, steps, halvings", [(0.5, 14, 1), (0.52, 15, 3)])
def test_maximal_steps_halve_to_stay_spacelike(a, steps, halvings, monkeypatch):
    # a full step would leave the spacelike region: each halving takes one
    # more trial, and the mixing restarts after it
    solve, evals = _damped(a, monkeypatch)
    result = solve()
    assert result.outer_iterations == steps
    assert len(evals) == 1 + steps + halvings
    assert first_fundamental_form(result.surface.gradients, "split").mask.all()


def test_maximal_step_that_no_halving_keeps_spacelike_is_unreachable(monkeypatch):
    solve, evals = _damped(0.56, monkeypatch)
    with pytest.raises(SpacelikeUnreachable, match="could not keep the iterate spacelike"):
        solve()
    assert len(evals) == 457


def test_boundary_shape_validated():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    with pytest.raises(ValidationError):
        solve_minimal(dom, [np.zeros((5, 5))])


@pytest.mark.parametrize("solve", [solve_minimal, solve_maximal])
def test_empty_boundary_is_a_validation_error(solve):
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    with pytest.raises(ValidationError, match="at least one component"):
        solve(dom, [])


def test_options_respected():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    with pytest.raises(MaxIterations):
        solve_minimal(dom, [np.log(np.cos(0.5 * X) / np.cos(0.5 * Y))], max_outer=1)


def test_stalled_residual_raises_max_iterations(monkeypatch):
    # with tolerance 0 no step converges: only the stall test ends the loop,
    # once rounding keeps the residual from falling although the mixing
    # restarts at every such step
    monkeypatch.setattr(twinsurf.solver, "_OUTER_TOL", 0.0)
    f = surface("scherk", 33, 33)
    with pytest.raises(MaxIterations, match="residual stalled .* mixing restarted"):
        solve_minimal(f.domain, [f.components[0].copy()], max_outer=50)


def test_oscillating_residual_is_not_a_stall():
    # near Scherk's singular lines the residual rises on some steps while
    # the iteration still converges (98 steps at 65^2)
    a = np.pi / 2 - 0.03
    dom = GridDomain.from_bounds(-a, -a, a, a, 65, 65)
    f = make_surface("scherk", None, dom)
    res = solve_minimal(dom, [f.components[0].copy()])
    assert res.update_history[-1] < _OUTER_TOL


def _scherk_square(n, margin):
    a = np.pi / 2 - margin
    dom = GridDomain.from_bounds(-a, -a, a, a, n, n)
    return make_surface("scherk", None, dom)


def _exact(system, name, n):
    """The catalog default (or the Scherk square at margin 0.3) and the
    side that `system` solves for."""
    f = _scherk_square(n, 0.3) if name == "square" else surface(name, n, n)
    return f if system == "minimal" else twin_forward(f).g


@pytest.mark.parametrize("system, iterations", [("minimal", 8), ("maximal", 6)])
def test_one_factorisation_per_solve(monkeypatch, system, iterations):
    # the preconditioner is diagonalised once per solve, at the initial guess
    calls = []
    poisson = twinsurf.solver._poisson
    monkeypatch.setattr(
        twinsurf.solver, "_poisson", lambda *a: calls.append(1) or poisson(*a)
    )
    exact = _exact(system, "catenoid", 65)
    solve = solve_minimal if system == "minimal" else solve_maximal
    res = solve(exact.domain, [c.copy() for c in exact.components])
    assert len(calls) == 1
    assert res.outer_iterations == iterations


@pytest.mark.parametrize(
    "system, name, n, iterations",
    [
        ("minimal", "catenoid", 65, 8),
        ("minimal", "helicoid", 65, 6),
        ("minimal", "scherk", 129, 3),
        ("maximal", "catenoid", 65, 6),
        ("maximal", "scherk", 129, 7),
        ("minimal", "square", 65, 17),
    ],
)
def test_step_counts_are_pinned(system, name, n, iterations):
    # the solve benchmark's items and the steep square: a weaker correction
    # (a = 1/2 instead of the mean of G / (E + G)) still reaches the same
    # fixed point, in more steps, so only a pinned count catches it
    exact = _exact(system, name, n)
    solve = solve_minimal if system == "minimal" else solve_maximal
    res = solve(exact.domain, [c.copy() for c in exact.components])
    assert res.outer_iterations == iterations


def _both_paths(monkeypatch, solve, f):
    """The default solve of f and one whose preconditioner weighs both
    axes equally (a = 1/2 instead of the mean of G / (E + G))."""
    default = solve(f.domain, [c.copy() for c in f.components])
    poisson = twinsurf.solver._poisson
    monkeypatch.setattr(twinsurf.solver, "_poisson", lambda domain, a: poisson(domain, 0.5))
    half = solve(f.domain, [c.copy() for c in f.components])
    return default, half


@pytest.mark.parametrize("system", ["minimal", "maximal"])
def test_five_point_first_factor_reaches_the_same_fixed_point(monkeypatch, system):
    # the fixed point is the 9-point residual's: another 5-point
    # preconditioner changes the path to it, not where it ends
    solve = solve_minimal if system == "minimal" else solve_maximal
    default, half = _both_paths(monkeypatch, solve, _exact(system, "catenoid", 65))
    assert half.outer_iterations != default.outer_iterations
    for u, v in zip(default.surface.components, half.surface.components):
        assert np.abs(u - v).max() <= 1e-9 * max(1.0, np.abs(v).max())


def test_steep_square_keeps_the_nine_point_path(monkeypatch):
    # max |F| / sqrt(E G) reads 0.89 on this square, yet the 5-point
    # preconditioner still ends at the 9-point fixed point
    f = _scherk_square(65, 0.3)
    default, half = _both_paths(monkeypatch, solve_minimal, f)
    for res in (default, half):
        _assert_fixed_point(res, "minimal")
    u, v = default.surface.components[0], half.surface.components[0]
    assert np.abs(u - v).max() <= 1e-8


def _assert_fixed_point(res, system):
    """G u_xx - 2 F u_xy + E u_yy by central differences at the metric of
    the returned surface itself, scaled as the solver's stop rule is."""
    dom = res.surface.domain
    met = first_fundamental_form(
        res.surface.gradients, "euclidean" if system == "minimal" else "split"
    )
    E, F, G = (a[1:-1, 1:-1] for a in (met.E, met.F, met.G))
    diag = float(np.max(np.abs(2.0 * (G / dom.dx**2 + E / dom.dy**2))))
    scale = max(1.0, *(np.abs(u).max() for u in res.surface.components))
    for u in res.surface.components:
        u_xx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / dom.dx**2
        u_yy = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dom.dy**2
        u_xy = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4.0 * dom.dx * dom.dy)
        r = np.abs(G * u_xx - 2.0 * F * u_xy + E * u_yy).max()
        assert r / diag / scale <= _OUTER_TOL


# name -> the minimal surface whose side is solved for
_FIXED_POINT_CASES = {
    "scherk": lambda: surface("scherk", 65, 65),
    "catenoid": lambda: surface("catenoid", 65, 65),
    "scherk-129": lambda: surface("scherk", 129, 129),
    "square-0.1": lambda: _scherk_square(65, 0.1),
    # two components; z^2, the default, is the Coons patch of its edges
    "holomorphic": lambda: surface("holomorphic", 65, 65, {"c0_3_re": 1.0}),
}


@pytest.mark.parametrize(
    "system, name",
    [
        ("minimal", "scherk"),
        ("maximal", "catenoid"),
        ("maximal", "scherk-129"),
        ("minimal", "square-0.1"),
        ("minimal", "holomorphic"),
        ("maximal", "holomorphic"),
    ],
)
def test_result_is_discrete_fixed_point(system, name):
    f = _FIXED_POINT_CASES[name]()
    exact = f if system == "minimal" else twin_forward(f).g
    solve = solve_minimal if system == "minimal" else solve_maximal
    res = solve(exact.domain, [c.copy() for c in exact.components])
    assert res.surface.n == exact.n
    assert res.outer_iterations > 1
    _assert_fixed_point(res, system)


def test_sine_matrix_applied_twice_is_the_identity():
    for m in (1, 2, 15, 63, 127):
        s = _sines(m)
        assert np.abs(s @ s * 2.0 / (m + 1) - np.eye(m)).max() <= 1e-13


def test_poisson_inverts_the_five_point_operator():
    # non-square (dx != dy) and square (one shared sine matrix), an uneven axis weight
    for nx, ny in ((41, 23), (33, 33)):
        dom = GridDomain.from_bounds(0.0, -1.0, 3.0, 0.5, nx, ny)
        a = 0.3
        rng = np.random.default_rng(11)
        v = np.zeros((2,) + dom.shape)
        v[:, 1:-1, 1:-1] = rng.uniform(-1.0, 1.0, (2, dom.ny - 2, dom.nx - 2))
        pv = a * (v[:, 1:-1, 2:] - 2.0 * v[:, 1:-1, 1:-1] + v[:, 1:-1, :-2]) / dom.dx**2
        pv += (1.0 - a) * (v[:, 2:, 1:-1] - 2.0 * v[:, 1:-1, 1:-1] + v[:, :-2, 1:-1]) / dom.dy**2
        assert np.abs(_poisson(dom, a)(pv) - v[:, 1:-1, 1:-1]).max() <= 1e-12
