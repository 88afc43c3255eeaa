"""Conformal coordinate transformation, resampling onto the isothermal
xi-grid, holomorphic null curves, and the Weierstrass twin relation.

The transformation is Psi(x, y) = (x + M, y + N) with M, N integrated from
(E/w, F/w) and (F/w, G/w); its Jacobian 2 + (E+G)/w is at least 4, as
E + G >= 2 sqrt(EG) >= 2w.  Null curves and the Weierstrass relation are
read on the source grid by pulling xi-derivatives back through DPsi, so
they keep second order; the pullback is taken once per call, and the
Weierstrass relation reads both sides and the minimal side's holomorphy
through it.  Only ``resample_to_chart`` inverts the chart: damped Newton
from an affine seed (no nearest-node search), bilinear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged, TargetOutsideImage, ValidationError
from .fields import (
    GridDomain,
    HeightMap,
    ScalarField,
    diff_x,
    diff_y,
    first_fundamental_form,
)
from .slag import _lift_potentials
from .twin import TwinPair, resolve_tol


@dataclass
class ConformalChart:
    source: HeightMap
    M: ScalarField
    N: ScalarField
    xi1: ScalarField  # x + M
    xi2: ScalarField  # y + N
    J_psi: ScalarField  # 2 + (E+G)/w


@dataclass
class NullCurveField:
    phi: list  # complex arrays phi_1..phi_{n+2}
    holomorphy_residual: float
    nullity_residual: float
    signature: str


def build_chart(
    f: HeightMap, basepoint=(0, 0), tol: float | None = None
) -> ConformalChart:
    tol = resolve_tol(tol, f.domain)
    M, N, metric, _ = _lift_potentials(f, basepoint, tol)
    return _build_chart(f, metric, M, N)


def _build_chart(f: HeightMap, metric, M, N) -> ConformalChart:
    """The chart of ``f`` from its metric and lift potentials M, N."""
    dom = f.domain
    X, Y = dom.meshgrid()
    return ConformalChart(
        f,
        M,
        N,
        ScalarField(dom, X + M.values),
        ScalarField(dom, Y + N.values),
        ScalarField(dom, 2.0 + (metric.E + metric.G) / metric.omega),
    )


def _cell(dom: GridDomain, x: np.ndarray, y: np.ndarray):
    """Flat lower-left node index and weights tx, ty, 1-tx, 1-ty of the
    cell holding each point (x, y), clamped to the grid."""
    fx = np.clip((x - dom.x0) / dom.dx, 0.0, dom.nx - 1.000001)
    fy = np.clip((y - dom.y0) / dom.dy, 0.0, dom.ny - 1.000001)
    i0 = fx.astype(int)
    j0 = fy.astype(int)
    tx = fx - i0
    ty = fy - j0
    return j0 * dom.nx + i0, tx, ty, 1 - tx, 1 - ty


def _bilinear(values: np.ndarray, cell):
    """Bilinear interpolation of node ``values`` on a cell from ``_cell``."""
    k, tx, ty, ux, uy = cell
    v, nx = values.ravel(), values.shape[1]
    return (
        v.take(k) * ux * uy
        + v.take(k + 1) * tx * uy
        + v.take(k + nx) * ux * ty
        + v.take(k + nx + 1) * tx * ty
    )


# boundary rings left out by the target grid and the null-curve residuals:
# the first ring carries the one-sided stencils
_MARGIN_CELLS = 2


def default_target_grid(chart: ConformalChart) -> GridDomain:
    """Largest safe axis-aligned xi-rectangle: inscribed in the forward
    image of the interior, shrunk by ``_MARGIN_CELLS`` grid cells.

    xi1 is monotone along rows and xi2 along columns (J_psi >= 4), so the
    rectangle [max over left edge, min over right edge] x [bottom, top]
    of the shrunk grid lies inside the image.
    """
    m = _MARGIN_CELLS
    xi1 = chart.xi1.values[m:-m, m:-m]
    xi2 = chart.xi2.values[m:-m, m:-m]
    lo1, hi1 = xi1[:, 0].max(), xi1[:, -1].min()
    lo2, hi2 = xi2[0, :].max(), xi2[-1, :].min()
    if not (hi1 > lo1 and hi2 > lo2):
        raise TargetOutsideImage("image of the interior has no inscribed rectangle")
    dom = chart.source.domain
    return GridDomain.from_bounds(lo1, lo2, hi1, hi2, dom.nx, dom.ny)


def _invert_chart(chart: ConformalChart, target: GridDomain):
    """Newton-invert Psi at every target node; returns preimages (x, y)
    and their ``_cell``, which the last residual already located.

    Psi is the gradient of the strongly convex (x^2 + y^2)/2 + h, so damped
    Newton converges from any seed: the affine map of the xi bounding box
    onto the source rectangle.  Each point is evaluated once: the damping
    trial that ends the halving is the next iterate."""
    dom = chart.source.domain
    Ew, Fw, Gw = first_fundamental_form(chart.source, "euclidean").over_area
    t1, t2 = target.meshgrid()
    xi1, xi2 = chart.xi1.values, chart.xi2.values

    def residual(x, y):
        cell = _cell(dom, x, y)
        r1 = x + _bilinear(chart.M.values, cell) - t1
        r2 = y + _bilinear(chart.N.values, cell) - t2
        return r1, r2, np.hypot(r1, r2), cell

    x = dom.x0 + (t1 - xi1.min()) * ((dom.x1 - dom.x0) / np.ptp(xi1))
    y = dom.y0 + (t2 - xi2.min()) * ((dom.y1 - dom.y0) / np.ptp(xi2))
    r = residual(x, y)
    for _ in range(50):
        r1, r2, rnorm, cell = r
        if rnorm.max() <= 1e-12:
            break
        a = 1.0 + _bilinear(Ew, cell)
        b = _bilinear(Fw, cell)
        d = 1.0 + _bilinear(Gw, cell)
        det = a * d - b * b
        sx = (d * r1 - b * r2) / det
        sy = (-b * r1 + a * r2) / det
        # damped step: halve while the residual does not decrease
        lam = np.ones_like(x)
        for _damp in range(20):
            r = residual(x - lam * sx, y - lam * sy)
            bad = r[2] > rnorm
            if not bad.any():
                break
            r = None  # hold one trial at a time
            lam = np.where(bad, lam / 2.0, lam)
        x, y = x - lam * sx, y - lam * sy
        if r is None:  # all 20 halvings ran
            r = residual(x, y)
    else:
        rmax = r[2].max()
        if rmax > 1e-9:
            raise NewtonDiverged(f"max residual {rmax:.3e} after 50 iterations")

    eps = 1e-9
    if (
        x.min() < dom.x0 - eps
        or x.max() > dom.x1 + eps
        or y.min() < dom.y0 - eps
        or y.max() > dom.y1 + eps
    ):
        raise TargetOutsideImage("inverted points leave the source rectangle")
    return x, y, r[3]


def resample_to_chart(chart: ConformalChart, h: HeightMap) -> HeightMap:
    """Immersion components on the uniform xi-grid of ``default_target_grid``.

    The output height map has n+2 components: ambient x(xi), y(xi) first,
    then the components of ``h`` evaluated at the preimage (bilinear).
    """
    if h.domain != chart.source.domain:
        raise ValidationError("height map and chart must share the source grid")
    target = default_target_grid(chart)
    x, y, cell = _invert_chart(chart, target)
    return HeightMap(target, [x, y] + [_bilinear(c, cell) for c in h.components])


def _pullback(chart: ConformalChart, *maps: HeightMap):
    """A, B of d/dxi = (DPsi)^{-T} d/d(x, y) = A d/dx + B d/dy, DPsi
    differenced from the chart's nodes; ``maps`` must share its grid."""
    dom = chart.source.domain
    if any(h.domain != dom for h in maps):
        raise ValidationError("height map and chart must share the source grid")
    if min(dom.nx, dom.ny) < 2 * _MARGIN_CELLS + 3:
        raise ValidationError(f"null curve needs at least {2 * _MARGIN_CELLS + 3} nodes per axis")
    xi1, xi2 = chart.xi1.values, chart.xi2.values
    xi1_x, xi1_y = diff_x(xi1, dom.dx), diff_y(xi1, dom.dy)
    xi2_x, xi2_y = diff_x(xi2, dom.dx), diff_y(xi2, dom.dy)
    det = xi1_x * xi2_y - xi1_y * xi2_x
    return (xi2_y + 1j * xi1_y) / det, -(xi2_x + 1j * xi1_x) / det


def _null_phi(h: HeightMap, A, B) -> list:
    dom = h.domain
    return [A, B] + [A * diff_x(c, dom.dx) + B * diff_y(c, dom.dy) for c in h.components]


def _holomorphy(phi, A, B, dom: GridDomain) -> float:
    """max |dbar phi_k|, ``_MARGIN_CELLS`` + 1 rings in."""
    sl = slice(_MARGIN_CELLS + 1, -_MARGIN_CELLS - 1)
    cr = (A.conj() * diff_x(p, dom.dx) + B.conj() * diff_y(p, dom.dy) for p in phi)
    return max([0.0] + [float(np.abs(c[sl, sl]).max()) for c in cr])


def _nullity(phi, signature: str) -> float:
    """max |<phi, phi>| in ``signature``, ``_MARGIN_CELLS`` rings in."""
    if signature == "euclidean":
        null = sum(p * p for p in phi)
    elif signature == "split":
        null = phi[0] ** 2 + phi[1] ** 2 - sum(p * p for p in phi[2:])
    else:
        raise ValidationError(f"unknown signature {signature!r}")
    m = _MARGIN_CELLS
    return float(np.abs(null[m:-m, m:-m]).max())


def null_curve(
    h: HeightMap, chart: ConformalChart, signature: str = "euclidean"
) -> NullCurveField:
    """phi_k = dF_k/dxi1 - i dF_k/dxi2 of F = (x, y, h_1..h_n) on the source
    grid: d = A d/dx + B d/dy and dbar = conj(A) d/dx + conj(B) d/dy from
    ``_pullback``.  Nullity is taken ``_MARGIN_CELLS`` rings in, holomorphy
    a ring further."""
    A, B = _pullback(chart, h)
    phi = _null_phi(h, A, B)
    holo, null = _holomorphy(phi, A, B, h.domain), _nullity(phi, signature)
    return NullCurveField(phi, holo, null, signature)


def verify_weierstrass_twin(pair: TwinPair, chart: ConformalChart) -> dict:
    """Residual of phihat_{k+2} = -i phi_{k+2}, ``_MARGIN_CELLS`` rings in,
    the holomorphy of the minimal side's null curve and the nullity of
    both sides'; one pullback through the chart serves both sides.

    phihat_1 = phi_1 and phihat_2 = phi_2 hold exactly: both sides read
    (x, y) through the one chart.  So ``max_residual``, the largest
    relation residual, equals ``height_residual``."""
    A, B = _pullback(chart, pair.f, pair.g)
    phi, phihat = _null_phi(pair.f, A, B), _null_phi(pair.g, A, B)
    sl = slice(_MARGIN_CELLS, -_MARGIN_CELLS)
    rel = (np.abs((p + 1j * q)[sl, sl]).max() for p, q in zip(phihat[2:], phi[2:]))
    r = max([0.0] + [float(v) for v in rel])
    return {
        "height_residual": r,
        "max_residual": r,
        "holomorphy_residual_min_side": _holomorphy(phi, A, B, pair.f.domain),
        "nullity_residual_min_side": _nullity(phi, "euclidean"),
        "nullity_residual_max_side": _nullity(phihat, "split"),
    }
