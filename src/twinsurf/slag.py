"""Special Lagrangian side: lifts of minimal graphs to unimodular-Hessian
potentials, symplectic graph rotations, and residuals / angle detection
for the special and split special Lagrangian equations.  The lift judges
M dx + N dy closed, by its reported M_y - N_x, before it integrates h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DenominatorVanishes,
    NotSpacelike,
    ParamConstraintViolation,
    PhiOutOfRange,
    ValidationError,
)
from .fields import (
    HeightMap,
    ScalarField,
    diff_x,
    diff_y,
    hessian,
    integrate_exact_form,
    interior_max,
)
from .systems import ResidualReport, SurfaceReading, read_surface

PARAM_TOL = 1e-12


@dataclass
class SLLift:
    """Gradient-graph lift of a minimal graph: potentials M, N with
    (M_x, M_y, N_x, N_y) = (E/w, F/w, F/w, G/w) and h with (h_x, h_y) = (M, N)."""

    M: ScalarField
    N: ScalarField
    h: ScalarField
    gradient_symmetry_residual: float  # max |M_y - N_x|
    hessian_det_residual: float  # max |h_xx h_yy - h_xy^2 - 1|
    area_preservation_residual: float  # max |d(M,N)/d(x,y) - 1|

    def to_report(self):
        return {
            "gradient_symmetry_residual": self.gradient_symmetry_residual,
            "hessian_det_residual": self.hessian_det_residual,
            "area_preservation_residual": self.area_preservation_residual,
        }


@dataclass
class SLParams:
    """Coefficients of a symplectic Monge-Ampere equation.

    standard mode requires lambda1^2 + eps*lambda2^2 = 1; reverse mode
    requires -eps*lambda1^2 + lambda2^2 = 1.
    """

    lambda1: float
    lambda2: float
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (-1, 1):
            raise ParamConstraintViolation("epsilon must be -1 or +1")

    def check(self, mode: str):
        l1, l2, eps = self.lambda1, self.lambda2, self.epsilon
        if mode == "standard":
            err = abs(l1 * l1 + eps * l2 * l2 - 1.0)
        elif mode == "reverse":
            err = abs(-eps * l1 * l1 + l2 * l2 - 1.0)
        else:
            raise ValidationError(f"unknown mode {mode!r}")
        if not err <= PARAM_TOL:  # NaN coefficients too
            raise ParamConstraintViolation(
                f"{mode} constraint violated by {err:.3e}"
            )


def sl_lift(f: HeightMap | SurfaceReading, basepoint=(0, 0), tol=None) -> SLLift:
    """Lift a minimal graph, or the map of its euclidean reading, to its
    area-preserving gradient map (M, N) and the unimodular-Hessian potential h."""
    reading = read_surface(f, "euclidean", tol)
    M, N = reading.potentials(basepoint)
    My, Nx = diff_y(M.values, M.domain.dy), diff_x(N.values, N.domain.dx)
    asym = My - Nx  # the closedness defect of h's form M dx + N dy
    sym = interior_max(asym)
    reading.require_closed(interior_max(np.divide(asym, reading.scale, out=asym)))
    del reading, asym  # the lift reads no more of it
    h = integrate_exact_form(M, N, basepoint)
    Mx, Ny = diff_x(M.values, M.domain.dx), diff_y(N.values, N.domain.dy)
    area = interior_max(Mx * Ny - My * Nx - 1.0)
    del Mx, My, Nx, Ny  # before the Hessian of h is taken
    hxx, hxy, hyy = hessian(h.values, h.domain)
    det = interior_max(hxx * hyy - hxy * hxy - 1.0)
    return SLLift(M, N, h, sym, det, area)


def graph_rotate(F: ScalarField, params: SLParams, mode: str = "standard") -> ScalarField:
    """Pointwise symplectic graph rotation.

    standard: h = l2*F - eps*l1*(x^2+y^2)/2  (det D^2 h = +1 when F solves
    the matching Monge-Ampere equation);
    reverse:  h = l2*F + l1*(x^2+eps*y^2)/2  (det D^2 h = -1 likewise).
    No PDE precondition is checked here; this is pure algebra.
    """
    params.check(mode)
    X, Y = F.domain.meshgrid()
    l1, l2, eps = params.lambda1, params.lambda2, params.epsilon
    if mode == "standard":
        h = l2 * F.values - eps * l1 * (X * X + Y * Y) / 2.0
    else:
        h = l2 * F.values + l1 * (X * X + eps * Y * Y) / 2.0
    return ScalarField(F.domain, h)


def _sl_terms(h: ScalarField, signature):
    """The trace of the Hessian of h and 1 - s h_xx h_yy + s h_xy^2 with
    s = +1 (euclidean) or -1 (split)."""
    if signature not in ("euclidean", "split"):
        raise ValidationError(f"unknown mode {signature!r}")
    s = 1.0 if signature == "euclidean" else -1.0
    hxx, hxy, hyy = hessian(h.values, h.domain)
    return hxx + hyy, 1.0 - s * hxx * hyy + s * hxy * hxy


def _sl_residual(h: ScalarField, theta: float, signature) -> ResidualReport:
    """The raw (unscaled) report; ``theta`` is checked before any grid work."""
    if signature == "euclidean":
        cos, sin, op = np.cos, np.sin, "sl_residual"
    else:
        cos, sin, op = np.cosh, np.sinh, "split_sl_residual"
    with np.errstate(all="ignore"):
        c, s = cos(theta), sin(theta)
    if not (np.isfinite(c) and np.isfinite(s)):
        raise ValidationError(f"theta {theta!r} has non-finite {cos.__name__}/{sin.__name__}")
    trace, det = _sl_terms(h, signature)
    if signature == "split":
        space = (det**2 - trace**2)[1:-1, 1:-1]
        if space.min() <= 0:
            raise NotSpacelike(
                "split spacelike condition fails", nodes=np.argwhere(space <= 0) + 1
            )
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan
        res = c * trace + s * det
    return ResidualReport(op, signature, [res], None, h.domain)


def sl_residual(h: ScalarField, theta: float) -> ResidualReport:
    """cos(theta)(h_xx + h_yy) + sin(theta)(1 - h_xx h_yy + h_xy^2)."""
    return _sl_residual(h, theta, "euclidean")


def split_sl_residual(h: ScalarField, theta: float) -> ResidualReport:
    """cosh(theta)(h_xx + h_yy) + sinh(theta)(1 + h_xx h_yy - h_xy^2);
    raises NOT_SPACELIKE where (1 + det)^2 <= trace^2 in the interior."""
    return _sl_residual(h, theta, "split")


def detect_angle(h: ScalarField, mode: str = "euclidean"):
    """Estimate the constant angle of the (split) special Lagrangian
    equation satisfied by ``h`` and report how constant it really is.

    split mode: phi = (h_xx+h_yy)/(1 + h_xx h_yy - h_xy^2) must take values
    in (-1, 1); theta = -artanh(mean phi), residual = max |phi - mean phi|.

    euclidean mode: the defining quotient (h_xx+h_yy)/(1 - h_xx h_yy +
    h_xy^2) degenerates exactly at theta = +-pi/2 (unimodular Hessian), so
    the angle is computed from the direction of the vector (trace,
    1 - det'): theta_node = atan2(-trace, 1 - det') taken mod pi in
    (-pi/2, pi/2], averaged circularly; the residual is the max angular
    spread mod pi.  theta = pi/2 (not -pi/2) is the reported representative
    for lifted potentials.
    """
    trace, den = _sl_terms(h, mode)
    sl = slice(1, -1)
    trace, den = trace[sl, sl], den[sl, sl]
    if mode == "split":
        if np.abs(den).min() < 1e-8:
            raise DenominatorVanishes("1 + det D^2 h vanishes on the grid")
        phi = trace / den
        out = np.abs(phi) >= 1.0
        if out.any():  # + 1: interior indices to grid nodes
            raise PhiOutOfRange("|phi| >= 1 somewhere", nodes=np.argwhere(out) + 1)
        mean = float(phi.mean())
        return -float(np.arctanh(mean)), float(np.abs(phi - mean).max())
    vec = np.hypot(trace, den)
    if vec.min() < 1e-8:
        raise DenominatorVanishes("(trace, 1 - det) vanishes on the grid")
    # angle defined mod pi; work on the doubled angle for circular averaging
    theta_node = np.arctan2(-trace, den)
    c2, s2 = np.cos(2 * theta_node).mean(), np.sin(2 * theta_node).mean()
    theta = 0.5 * np.arctan2(s2, c2)

    def spread(t):  # largest angular deviation mod pi
        return float((np.abs(np.angle(np.exp(2j * (theta_node - t)))) / 2.0).max())

    dev = spread(theta)
    # an estimate within its spread of -pi/2 is the +pi/2 representative
    if theta <= -np.pi / 2 + dev:
        theta += np.pi
        dev = spread(theta)
    return float(theta), dev
