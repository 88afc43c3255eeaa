import numpy as np
import pytest

from twinsurf.errors import (
    DenominatorVanishes,
    NotClosed,
    NotMinimal,
    NotSpacelike,
    ParamConstraintViolation,
    PhiOutOfRange,
    ValidationError,
)
from twinsurf import reports
from twinsurf.fields import GridDomain, HeightMap, ScalarField
from twinsurf.slag import SLParams, detect_angle, graph_rotate, sl_lift, sl_residual, split_sl_residual
from twinsurf.systems import SurfaceReading

from conftest import surface


def test_the_lift_judges_its_form_by_its_gradient_symmetry():
    # (E/w, F/w, G/w) = (-y, x, 0) on [0, 4] x [0, 1]: the potentials' forms
    # miss closedness by 2, within tol 3, but M dx + N dy misses it by
    # |M_y - N_x| = x from the basepoint (0, 0), which the lift reports and
    # judges in units of the reading's scale before h is integrated
    dom = GridDomain.from_bounds(0.0, 0.0, 4.0, 1.0, 65, 17)
    X, Y = dom.meshgrid()
    f = HeightMap(dom, [np.zeros(dom.shape)])

    def reading(scale):
        over_area = (-Y, X, np.zeros(dom.shape))
        return SurfaceReading(f, "euclidean", 3.0, 0.0, np.full(dom.shape, scale), over_area, X)

    with pytest.raises(NotClosed, match=r"residual 3\.938e\+00 > tol 3\.000e\+00"):
        sl_lift(reading(1.0))
    assert sl_lift(reading(2.0)).gradient_symmetry_residual == 4.0 - dom.dx


def test_lift_of_flat_graph():
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    lift = sl_lift(HeightMap(dom, [np.zeros(dom.shape)]))
    # E = G = omega = 1, F = 0: M = x, N = y, h = (x^2 + y^2)/2
    assert np.abs(lift.M.values - X).max() < 1e-12
    assert np.abs(lift.N.values - Y).max() < 1e-12
    assert np.abs(lift.h.values - (X * X + Y * Y) / 2).max() < 1e-12
    assert lift.hessian_det_residual < 1e-10
    assert lift.gradient_symmetry_residual < 1e-12
    assert lift.area_preservation_residual < 1e-10


def test_lift_rejects_non_minimal_input():
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(NotMinimal):
        sl_lift(HeightMap(dom, [X**2]))


def test_lift_basepoint_anchoring():
    f = surface("scherk", 33, 33)
    lift = sl_lift(f, basepoint=(16, 16))
    assert lift.M.values[16, 16] == 0.0
    assert lift.N.values[16, 16] == 0.0


def test_params_constraint_checked():
    with pytest.raises(ParamConstraintViolation):
        SLParams(1.0, 1.0, 1).check("standard")  # 1 + 1 != 1
    with pytest.raises(ParamConstraintViolation):
        SLParams(0.5, 0.5, 0)
    SLParams(0.0, 1.0, 1).check("standard")
    SLParams(0.0, 1.0, -1).check("reverse")
    with pytest.raises(ValidationError):
        SLParams(0.0, 1.0, 1).check("diagonal")


@pytest.mark.parametrize("mode", ["standard", "reverse"])
@pytest.mark.parametrize("lambda1, lambda2", [(np.nan, 1.0), (0.0, np.nan)])
def test_nan_coefficients_violate_the_constraint(mode, lambda1, lambda2):
    # err > tol reads False for a NaN err
    with pytest.raises(ParamConstraintViolation, match="nan"):
        SLParams(lambda1, lambda2, 1).check(mode)


def test_rotation_of_harmonic_potential():
    # F = (x^2+y^2)/2, eps = +1: constraint forces (l1, l2) = (0, -1),
    # h = -F, and det D^2 h = 1 exactly
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    F = ScalarField(dom, (X * X + Y * Y) / 2)
    h = graph_rotate(F, SLParams(0.0, -1.0, 1), "standard")
    assert np.abs(h.values + F.values).max() < 1e-14


def test_euclidean_residual_and_angle():
    # h = (x^2+y^2)/2 solves the special Lagrangian equation at theta = pi/2
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    h = ScalarField(dom, (X * X + Y * Y) / 2)
    assert sl_residual(h, np.pi / 2).max_abs() < 1e-11
    theta, spread = detect_angle(h, "euclidean")
    assert theta == pytest.approx(np.pi / 2, abs=1e-9)
    assert spread < 1e-9


def test_split_residual_and_angle():
    # h = a (x^2+y^2)/2 solves the split equation at theta = -2 artanh(a)
    a = 0.3
    theta = -2 * np.arctanh(a)
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    h = ScalarField(dom, a * (X * X + Y * Y) / 2)
    assert split_sl_residual(h, theta).max_abs() < 1e-11
    est, spread = detect_angle(h, "split")
    assert est == pytest.approx(theta, abs=1e-9)
    assert spread < 1e-9


def test_sl_residual_report_is_raw():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    rep = sl_residual(ScalarField(dom, (X * X + Y * Y) / 2), np.pi / 2)
    assert rep.to_report()["normalization"] == "raw"
    assert rep.max_abs() == rep.max_abs("raw")
    with pytest.raises(ValidationError, match="no scale"):
        rep.max_abs("scaled")


@pytest.mark.parametrize(
    "residual, theta",
    [
        (sl_residual, np.inf),
        (sl_residual, np.nan),
        (split_sl_residual, 1000.0),  # cosh overflows
        (split_sl_residual, -np.inf),
        (split_sl_residual, np.nan),
    ],
)
def test_theta_with_non_finite_coefficients_rejected(residual, theta):
    # checked before any grid work: this h is not split spacelike either
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    with pytest.raises(ValidationError, match="non-finite"):
        residual(ScalarField(dom, (X * X + Y * Y) / 2), theta)


@pytest.mark.parametrize("a, theta", [(0.3, 700.0), (2.0, 709.7), (2.0, -709.7)])
def test_residual_past_the_float_range_reads_non_finite_without_warning(a, theta):
    # cosh and sinh are finite, the residual or its mean square is not; the
    # suite turns a numpy warning into an error
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    rep = split_sl_residual(ScalarField(dom, a * (X * X + Y * Y) / 2), theta)
    assert not np.isfinite(rep.l2())
    with pytest.raises(ValidationError, match="non-finite value in report"):
        reports.dumps(rep.to_report())


def test_split_residual_reports_interior_nodes_only():
    # the spacelike condition is read on the interior; so are the nodes
    # the error names: (1 + det)^2 = trace^2 = 4 at every node here
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    with pytest.raises(NotSpacelike) as err:
        split_sl_residual(ScalarField(dom, (X * X + Y * Y) / 2), 0.0)
    nodes = err.value.nodes
    assert len(nodes) and ((nodes >= 1) & (nodes <= 7)).all(), nodes


def test_split_angle_denominator_guard():
    # h = xy has 1 + det D^2 h = 0 everywhere
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    with pytest.raises(DenominatorVanishes):
        detect_angle(ScalarField(dom, X * Y), "split")


def test_split_angle_phi_range_guard():
    # h = (x^2+y^2)/2 gives phi = 2/(1+1) = 1: artanh diverges
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    with pytest.raises(PhiOutOfRange):
        detect_angle(ScalarField(dom, (X * X + Y * Y) / 2), "split")


def test_split_angle_reports_grid_nodes_out_of_range():
    # phi = 1.8/1.81 < 1 except at the four neighbours of the bump
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    X, Y = dom.meshgrid()
    h = 0.45 * (X * X + Y * Y)
    h[3, 5] += 0.01
    with pytest.raises(PhiOutOfRange) as err:
        detect_angle(ScalarField(dom, h), "split")
    assert err.value.nodes.tolist() == [[2, 5], [3, 4], [3, 6], [4, 5]]


def test_detect_angle_unknown_mode():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 9, 9)
    with pytest.raises(ValidationError):
        detect_angle(ScalarField(dom, np.zeros(dom.shape)), "lorentz")


def test_lift_potential_solves_euclidean_equation_at_right_angle():
    # cross-module consistency: the lift of a minimal graph solves the
    # special Lagrangian equation at theta = pi/2
    lift = sl_lift(surface("catenoid", 65, 33))
    assert sl_residual(lift.h, np.pi / 2).max_abs() <= 1e-2
    theta, _ = detect_angle(lift.h, "euclidean")
    assert theta == pytest.approx(np.pi / 2, abs=1e-3)


@pytest.mark.parametrize("n", [33, 65])
def test_detect_angle_folds_within_spread_onto_positive_right_angle(n):
    # from values only, the holomorphic lift's angle estimate lands a few
    # ulps below -pi/2, inside its own spread: the reported representative
    # is +pi/2
    f = surface("holomorphic", n, n)
    lift = sl_lift(HeightMap(f.domain, f.components))
    theta, spread = detect_angle(lift.h, "euclidean")
    assert spread < 1e-10
    assert theta > 0
    assert theta == pytest.approx(np.pi / 2, abs=1e-10)
