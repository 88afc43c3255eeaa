import numpy as np
import pytest

from twinsurf.errors import SpacelikeUnreachable, ValidationError
from twinsurf.fields import GridDomain, HeightMap
from twinsurf.solver import SolveOptions, solve_maximal, solve_minimal
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


def test_initial_guess_seeds_iteration():
    f = surface("scherk", 33, 33)
    initial = HeightMap(f.domain, [c.copy() for c in f.components])
    res = solve_minimal(f.domain, [f.components[0].copy()], initial=initial)
    err = np.abs(res.surface.components[0] - f.components[0])[1:-1, 1:-1].max()
    assert err <= 1e-3


def test_initial_guess_component_count_validated():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    initial = HeightMap(dom, [0.3 * X, 0.1 * Y])
    with pytest.raises(ValidationError):
        solve_minimal(dom, [0.3 * X], initial=initial)


def test_options_respected():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    opts = SolveOptions(max_outer=1)
    from twinsurf.errors import MaxIterations

    with pytest.raises(MaxIterations):
        solve_minimal(dom, [np.log(np.cos(0.5 * X) / np.cos(0.5 * Y))], options=opts)
