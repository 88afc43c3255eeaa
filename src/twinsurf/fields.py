"""Grid domains, fields, finite differences and exact 1-form integration.

Arrays are stored with shape ``(ny, nx)``: the y index is the slow (row)
axis, so a row-major flatten runs through x fastest.  All derivative
stencils are second order: central in the interior, one-sided on the
boundary rows and columns, along a given axis (the last for x, the first
for y), written into one C-contiguous output array and scaled there in
one pass.  First differences run over the flattened grid (``_central1``);
the other sums stay strided along x, where a flat run would sum across
the row ends.  First derivatives have two end rules: three-point in
``diff_x``/``diff_y``, five-point (error matched to the central one) for
a ``HeightMap`` without analytic gradients.  Exact 1-forms are
integrated by cumulative trapezoids, unchecked: ``systems`` judges
whether one is closed.
The kernels write only into arrays they allocated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


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
        small = min(self.dx, self.dy)
        if small * small < np.finfo(float).tiny:  # the stencils divide by h^2
            raise ValidationError(f"grid spacing {small:.3e} squares below the float range")
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

    def node(self, basepoint) -> tuple:
        """``basepoint`` as node indices (ix, iy): two integers inside the grid."""
        try:
            ix, iy = (operator.index(i) for i in basepoint)
        except (TypeError, ValueError) as exc:  # not iterable, not integers, not two
            raise ValidationError(f"basepoint {basepoint!r} is not two node indices") from exc
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ValidationError(f"basepoint {basepoint} outside grid")
        return ix, iy


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


def _central1(v: np.ndarray, axis: int):
    """v[k+1] - v[k-1] along ``axis``, unscaled, over ``v`` C-contiguous
    (copied once if it is not) as one flat run, shifted by 1 along x and
    by nx along y; the result and the views of ``v`` and of it with
    ``axis`` last.  Along x the run also writes each row's two end nodes
    from across the row ends; the caller overwrites them, then scales.  On
    finite input those differences overflow only where the ends do."""
    v = np.ascontiguousarray(v)
    d = np.empty(v.shape, np.result_type(v, float))
    s, vf = (v.shape[1] if axis == 0 else 1), v.ravel()
    np.subtract(vf[2 * s :], vf[: -2 * s], out=d.ravel()[s:-s])
    return d, v.swapaxes(axis, -1), d.swapaxes(axis, -1)


def _diff1(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along ``axis``: central, three-point one-sided at
    the two ends."""
    d, v, e = _central1(v, axis)
    e[..., 0] = -3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]
    e[..., -1] = 3.0 * v[..., -1] - 4.0 * v[..., -2] + v[..., -3]
    d /= 2.0 * h
    return d


# node j of the two ends, from each end inwards, and its weight in
# (-5, 11, -10, 5, -1)/(2h), negated at the far end: one row per j
_END_NODES = np.array([[0, -1], [1, -2], [2, -3], [3, -4], [4, -5]])
_END_WEIGHTS = np.array([[-5.0, 5.0], [11.0, -11.0], [-10.0, 10.0], [5.0, -5.0], [-1.0, 1.0]])


def _diff1_matched(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along ``axis``: central, five-point one-sided at the
    two ends.  The end error matches the central error h^2 f^(3)/6 through
    h^3 (Fornberg, Math. Comp. 51, 1988), so differencing again keeps
    second order on the first ring.

    Both ends are taken at once, each sum elementwise in node order from
    the end inwards (no BLAS)."""
    d, v, e = _central1(v, axis)
    t = v[..., _END_NODES]
    t *= _END_WEIGHTS
    s = t[..., 0, :] + t[..., 1, :]
    for j in (2, 3, 4):
        s += t[..., j, :]
    e[..., 0], e[..., -1] = s[..., 0], s[..., 1]
    d /= 2.0 * h
    return d


def _diff2(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along ``axis``: central, four-point one-sided at
    the two ends.  The sums stay strided: over one flat run, a sum across
    a row end can overflow where no end does (row ends past a quarter of
    the float range)."""
    d = np.empty(v.shape, np.result_type(v, float))
    v, e = v.swapaxes(axis, -1), d.swapaxes(axis, -1)
    inner = np.multiply(2.0, v[..., 1:-1], out=e[..., 1:-1])
    np.subtract(v[..., 2:], inner, out=inner)
    inner += v[..., :-2]
    e[..., 0] = 2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]
    e[..., -1] = 2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]
    d /= h**2
    return d


# x runs along the last axis and y along the first; the result is
# C-contiguous.  The ends stay three-point: with those of
# ``_diff1_matched`` the longer end sums amplify rounding, and the Jorgens
# field of exact quadratics reads planarity 5.9e-13 to 7.1e-12 (bound 1e-12)
def diff_x(values: np.ndarray, dx: float) -> np.ndarray:
    return _diff1(values, dx, -1)


def diff_y(values: np.ndarray, dy: float) -> np.ndarray:
    return _diff1(values, dy, 0)


def diff2_x(values: np.ndarray, dx: float) -> np.ndarray:
    return _diff2(values, dx, -1)


def diff2_y(values: np.ndarray, dy: float) -> np.ndarray:
    return _diff2(values, dy, 0)


def diff_xy(values: np.ndarray, dx: float, dy: float) -> np.ndarray:
    return diff_y(diff_x(values, dx), dy)


def hessian(values: np.ndarray, domain: GridDomain):
    """(f_xx, f_xy, f_yy) of node values."""
    return (
        diff2_x(values, domain.dx),
        diff_xy(values, domain.dx, domain.dy),
        diff2_y(values, domain.dy),
    )


def interior_max(values: np.ndarray) -> float:
    """max |values| off the boundary rows and columns, without a temporary:
    NaN propagates, and ``abs`` reads an all-zero interior as +0.0."""
    v = values[1:-1, 1:-1]
    return abs(float(max(v.max(), -v.min())))


def _grid_array(values, domain: GridDomain, what: str) -> np.ndarray:
    """``values`` as a float array, which must be finite and on the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != domain.shape:
        raise ValidationError(f"{what} shape mismatch")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} contains non-finite values")
    return values


def _pair(gradient):
    """``gradient`` unpacked as (d/dx, d/dy); anything else is rejected."""
    try:
        gx, gy = gradient
    except (TypeError, ValueError):
        raise ValidationError("each gradient entry must be a pair (d/dx, d/dy)") from None
    return gx, gy


@dataclass
class HeightMap:
    """An n-component map on a grid with (optionally analytic) gradients.

    ``gradients[k]`` holds the pair (df_k/dx, df_k/dy), checked like the
    components.  When none are given they are taken once, at construction,
    by finite differences of the values, with the error-matched ends of
    ``_diff1_matched``.
    """

    domain: GridDomain
    components: list
    gradients: list | None = None

    def __post_init__(self):
        if not self.components:
            raise ValidationError("height map needs at least one component")
        dom = self.domain
        self.components = [_grid_array(c, dom, "component") for c in self.components]
        self._differenced = self.gradients is None
        if self._differenced:
            self.gradients = [
                (_diff1_matched(c, dom.dx, -1), _diff1_matched(c, dom.dy, 0))
                for c in self.components
            ]
            return
        if len(self.gradients) != len(self.components):
            raise ValidationError("one gradient pair per component required")
        self.gradients = [
            tuple(_grid_array(g, dom, "gradient") for g in _pair(pair))
            for pair in self.gradients
        ]

    @property
    def n(self):
        return len(self.components)

    def raw(self) -> HeightMap:
        """These node values with finite-difference gradients: this map if it has them."""
        return self if self._differenced else HeightMap(self.domain, self.components)


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
        w = self.omega if self.mask.all() else np.where(self.mask, self.omega, np.inf)
        return self.E / w, self.F / w, self.G / w


@dataclass
class JacobianData:
    pairs: dict  # {(i, j): array}, 1-based component indices, i < j
    norm: np.ndarray
    violations: np.ndarray  # nodes with ||J|| >= 1

    @property
    def has_positive_area_angle(self):
        return len(self.violations) == 0


def _sum_of_products(xs, ys) -> np.ndarray:
    """sum(x * y for x, y in zip(xs, ys)) in one array: the additions of
    Python's sum from 0, which turns a first -0.0 (never a square) into 0.0."""
    acc = np.multiply(xs[0], ys[0])
    if xs is not ys:  # not a sum of squares
        acc += 0
    t = None
    for x, y in zip(xs[1:], ys[1:]):
        t = np.multiply(x, y, out=t)
        acc += t
    return acc


def first_fundamental_form(gradients, signature: str = "euclidean") -> MetricData:
    """Metric coefficients of the graph with these gradient pairs (a
    ``HeightMap``'s ``gradients``, or a row block of them) in either ambient
    signature; elementwise, so a block of rows gets its rows' bits."""
    if signature not in ("euclidean", "split"):
        raise ValidationError(f"unknown signature {signature!r}")
    alphas, betas = zip(*gradients)
    sa2 = _sum_of_products(alphas, alphas)
    sab = _sum_of_products(alphas, betas)
    sb2 = _sum_of_products(betas, betas)
    if signature == "euclidean":
        E, F, G = np.add(1.0, sa2, out=sa2), sab, np.add(1.0, sb2, out=sb2)
    else:
        E, F, G = (
            np.subtract(1.0, sa2, out=sa2),
            np.negative(sab, out=sab),
            np.subtract(1.0, sb2, out=sb2),
        )
    disc = E * G
    disc -= F * F
    mask = (E > 0) & (disc > 0)
    if not (valid := mask.all()):
        np.copyto(disc, 0.0, where=~mask)
    omega = np.sqrt(disc, out=disc)
    if signature == "euclidean" and not valid:
        # cannot happen analytically (EG - F^2 >= 1); numerical garbage in
        raise ValidationError("euclidean metric with non-positive discriminant")
    return MetricData(signature, E, F, G, omega, mask)


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
        Js = list(pairs.values())
        norm = _sum_of_products(Js, Js)
        np.sqrt(norm, out=norm)
    else:
        norm = np.zeros(h.domain.shape)
    return JacobianData(pairs, norm, np.argwhere(norm >= 1.0))


def closedness_residual_field(P: np.ndarray, Q: np.ndarray, domain: GridDomain):
    """Pointwise |dP/dy - dQ/dx| of the 1-form P dx + Q dy."""
    r = diff_y(P, domain.dy)
    r -= diff_x(Q, domain.dx)
    return np.abs(r, out=r)


def _cumtrapz(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Cumulative trapezoid along ``axis``, 0 at the first node.  The
    neighbour sums stay strided (a flat run would add across the row ends);
    the scaling runs over the whole array, whose zero first nodes stay 0."""
    out = np.zeros_like(v)
    v, o = v.swapaxes(axis, -1), out.swapaxes(axis, -1)
    step = np.add(v[..., 1:], v[..., :-1], out=o[..., 1:])
    np.multiply(h, out, out=out)
    out /= 2.0
    np.cumsum(step, axis=-1, out=step)
    return out


def integrate_exact_form(P: ScalarField, Q: ScalarField, basepoint: tuple = (0, 0)) -> ScalarField:
    """Potential u with (u_x, u_y) ~ (P, Q), u(basepoint) = 0.

    Trapezoid integration along the two axis-aligned L-paths from the
    basepoint (x-first and y-first), averaged; averaging symmetrizes the
    O(h^2) error and makes path independence a testable property.
    """
    dom = P.domain
    if Q.domain != dom:
        raise ValidationError("P and Q must share a domain")
    ix, iy = dom.node(basepoint)
    cumx = _cumtrapz(P.values, dom.dx, -1)
    cumx -= cumx[:, ix, None].copy()  # a copy: no buffered overlap with the output
    cumy = _cumtrapz(Q.values, dom.dy, 0)
    cumy -= cumy[iy].copy()

    # u = (x-first + y-first) / 2, the x-first path summed into cumy and
    # the y-first path into cumx
    col = cumy[:, ix][:, None].copy()
    u = np.add(cumx[iy, :][None, :], cumy, out=cumy)
    np.add(col, cumx, out=cumx)
    u += cumx
    np.multiply(0.5, u, out=u)
    u[iy, ix] = 0.0  # exact by construction; enforce against rounding
    return ScalarField(dom, u)
