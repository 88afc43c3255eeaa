"""Grid domains, fields, finite differences and exact 1-form integration.

Arrays are stored with shape ``(ny, nx)``: the y index is the slow (row)
axis, so a row-major flatten runs through x fastest.  All derivative
stencils are second order: central in the interior, one-sided three/four
point stencils on the boundary rows and columns.  There is one stencil
per derivative order, along the last axis; the y derivatives apply it to
the transpose.  Exact 1-forms are integrated by cumulative trapezoids
behind one closedness guard, in units of a caller-given scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotClosed, ValidationError


def _check_nodes(nx, ny):
    if nx < 5 or ny < 5:
        raise ValidationError("need at least 5 nodes per axis")


@dataclass(frozen=True)
class GridDomain:
    """Closed axis-aligned rectangle sampled on a uniform lattice.

    Rectangles are simply connected, which every path integration here
    relies on; that is why no other domain shape is supported.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.x0, self.y0, self.dx, self.dy])):
            raise ValidationError("grid origin and spacings must be finite")
        if not (self.dx > 0 and self.dy > 0):
            raise ValidationError("grid spacings must be positive")
        _check_nodes(self.nx, self.ny)

    @classmethod
    def from_bounds(cls, x0, y0, x1, y1, nx, ny):
        if not (x1 > x0 and y1 > y0):
            raise ValidationError("degenerate rectangle")
        _check_nodes(nx, ny)  # before dividing by nx - 1, ny - 1
        return cls(x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1), nx, ny)

    @property
    def x1(self):
        return self.x0 + self.dx * (self.nx - 1)

    @property
    def y1(self):
        return self.y0 + self.dy * (self.ny - 1)

    @property
    def shape(self):
        return (self.ny, self.nx)

    @property
    def xs(self):
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ys(self):
        return self.y0 + self.dy * np.arange(self.ny)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys)

    @property
    def h(self):
        """Largest spacing; the scale used for default tolerances."""
        return max(self.dx, self.dy)


@dataclass
class ScalarField:
    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValidationError(
                f"values shape {self.values.shape} != grid {self.domain.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("field contains non-finite values")


def _diff1(v: np.ndarray, h: float) -> np.ndarray:
    """First derivative along the last axis: central, three-point one-sided
    at the two ends."""
    d = np.empty_like(v, dtype=np.result_type(v, float))
    d[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * h)
    d[..., 0] = (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / (2.0 * h)
    d[..., -1] = (3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]) / (2.0 * h)
    return d


def _diff2(v: np.ndarray, h: float) -> np.ndarray:
    """Second derivative along the last axis: central, four-point one-sided
    at the two ends."""
    d = np.empty_like(v, dtype=np.result_type(v, float))
    d[..., 1:-1] = (v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]) / h**2
    d[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]) / h**2
    d[..., -1] = (
        2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]
    ) / h**2
    return d


# the y stencils run on the transpose; transposed back, the result has the
# memory layout of ``values``
def diff_x(values: np.ndarray, dx: float) -> np.ndarray:
    return _diff1(values, dx)


def diff_y(values: np.ndarray, dy: float) -> np.ndarray:
    return _diff1(values.T, dy).T


def diff2_x(values: np.ndarray, dx: float) -> np.ndarray:
    return _diff2(values, dx)


def diff2_y(values: np.ndarray, dy: float) -> np.ndarray:
    return _diff2(values.T, dy).T


def diff_xy(values: np.ndarray, dx: float, dy: float) -> np.ndarray:
    return diff_y(diff_x(values, dx), dy)


def hessian(values: np.ndarray, domain: GridDomain):
    """(f_xx, f_xy, f_yy) of node values."""
    return (
        diff2_x(values, domain.dx),
        diff_xy(values, domain.dx, domain.dy),
        diff2_y(values, domain.dy),
    )


@dataclass
class HeightMap:
    """An n-component map on a grid with (optionally analytic) gradients.

    ``gradients[k]`` holds the pair (df_k/dx, df_k/dy).  When none are
    given they are taken once, at construction, by finite differences of
    the sampled values; ``alpha``/``beta`` only look them up.
    """

    domain: GridDomain
    components: list
    gradients: list | None = None

    def __post_init__(self):
        if not self.components:
            raise ValidationError("height map needs at least one component")
        self.components = [np.asarray(c, dtype=float) for c in self.components]
        for c in self.components:
            if c.shape != self.domain.shape:
                raise ValidationError("component shape mismatch")
            if not np.all(np.isfinite(c)):
                raise ValidationError("component contains non-finite values")
        dom = self.domain
        if self.gradients is None:
            self.gradients = [(diff_x(c, dom.dx), diff_y(c, dom.dy)) for c in self.components]
        if len(self.gradients) != len(self.components):
            raise ValidationError("one gradient pair per component required")
        self.gradients = [
            (np.asarray(gx, dtype=float), np.asarray(gy, dtype=float))
            for gx, gy in self.gradients
        ]

    @property
    def n(self):
        return len(self.components)

    def alpha(self, k: int) -> np.ndarray:
        """df_k/dx (0-based k)."""
        return self.gradients[k][0]

    def beta(self, k: int) -> np.ndarray:
        """df_k/dy (0-based k)."""
        return self.gradients[k][1]


@dataclass
class MetricData:
    """First fundamental form coefficients; hatted flavor under 'split'.

    In the split signature the data is only meaningful where the metric is
    positive definite (spacelike): E > 0 and E*G - F^2 > 0.  ``mask``
    records validity and ``omega`` is NaN-free (zeroed) outside it.
    ``over_area`` holds the metric-over-area fields (E/w, F/w, G/w), taken
    once on first use and 0 outside the mask.
    """

    signature: str
    domain: GridDomain
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    omega: np.ndarray
    mask: np.ndarray

    @property
    def invalid_nodes(self):
        return np.argwhere(~self.mask)

    @cached_property
    def over_area(self):
        w = np.where(self.mask, self.omega, np.inf)  # masked nodes give 0
        return self.E / w, self.F / w, self.G / w


@dataclass
class JacobianData:
    pairs: dict  # {(i, j): array}, 1-based component indices, i < j
    norm: np.ndarray
    violations: np.ndarray  # nodes with ||J|| >= 1

    @property
    def has_positive_area_angle(self):
        return len(self.violations) == 0


def first_fundamental_form(h: HeightMap, signature: str = "euclidean") -> MetricData:
    """Metric coefficients of the graph of ``h`` in either ambient signature."""
    if signature not in ("euclidean", "split"):
        raise ValidationError(f"unknown signature {signature!r}")
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
    omega = np.sqrt(np.where(mask, disc, 0.0))
    if signature == "euclidean" and not mask.all():
        # cannot happen analytically (EG - F^2 >= 1); numerical garbage in
        raise ValidationError("euclidean metric with non-positive discriminant")
    return MetricData(signature, h.domain, E, F, G, omega, mask)


def jacobian_data(h: HeightMap) -> JacobianData:
    """All pairwise Jacobians and their norm ||J||, the area-angle's cosine.

    ||J|| >= 1 nodes are recorded in ``violations`` rather than raised:
    callers that require a positive area-angle decide fatality.
    """
    alphas, betas = zip(*h.gradients)
    pairs = {}
    for i in range(h.n):
        for j in range(i + 1, h.n):
            pairs[(i + 1, j + 1)] = alphas[i] * betas[j] - alphas[j] * betas[i]
    if pairs:
        norm = np.sqrt(sum(J * J for J in pairs.values()))
    else:
        norm = np.zeros(h.domain.shape)
    return JacobianData(pairs, norm, np.argwhere(norm >= 1.0))


def closedness_residual_field(P: np.ndarray, Q: np.ndarray, domain: GridDomain):
    """Pointwise |dP/dy - dQ/dx| of the 1-form P dx + Q dy."""
    return np.abs(diff_y(P, domain.dy) - diff_x(Q, domain.dx))


def _cumtrapz(v: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis, 0 at the first node."""
    out = np.zeros_like(v)
    np.cumsum(h * (v[..., 1:] + v[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


def integrate_exact_form(
    P: ScalarField,
    Q: ScalarField,
    basepoint: tuple = (0, 0),
    tol: float | None = None,
    scale: float | np.ndarray = 1.0,
) -> ScalarField:
    """Potential u with (u_x, u_y) ~ (P, Q), u(basepoint) = 0.

    Trapezoid integration along the two axis-aligned L-paths from the
    basepoint (x-first and y-first), averaged; averaging symmetrizes the
    O(h^2) error and makes path independence a testable property.

    ``tol``, when given, bounds the closedness residual divided by
    ``scale`` (a number or a nodewise array) on interior nodes; beyond it
    the form is rejected as NOT_CLOSED.  For twin and lift gradient fields
    the closedness defect is the surface system in divergence form, so
    they pass the nodewise scale of the residual evaluators.
    """
    dom = P.domain
    if Q.domain != dom:
        raise ValidationError("P and Q must share a domain")
    ix, iy = basepoint
    if not (0 <= ix < dom.nx and 0 <= iy < dom.ny):
        raise ValidationError(f"basepoint {basepoint} outside grid")

    if tol is not None:
        closed = closedness_residual_field(P.values, Q.values, dom) / scale
        worst = float(closed[1:-1, 1:-1].max())
        if worst > tol:
            raise NotClosed(f"scaled closedness residual {worst:.3e} > tol {tol:.3e}")

    cumx = _cumtrapz(P.values, dom.dx)
    cumx -= cumx[:, ix][:, None]
    cumy = _cumtrapz(Q.values.T, dom.dy).T
    cumy -= cumy[iy, :][None, :]

    u_xfirst = cumx[iy, :][None, :] + cumy
    u_yfirst = cumy[:, ix][:, None] + cumx
    u = 0.5 * (u_xfirst + u_yfirst)
    u[iy, ix] = 0.0  # exact by construction; enforce against rounding
    return ScalarField(dom, u)
