"""Conformal coordinate transformation, resampling onto the isothermal
xi-grid, holomorphic null curves, and the Weierstrass twin relation.

The transformation is Psi(x, y) = (x + M, y + N) with M, N integrated from
(E/w, F/w) and (F/w, G/w); its Jacobian 2 + E/w + G/w is at least 4, as
E + G >= 2 sqrt(EG) >= 2w; the chart stores M, N and J_psi and reads xi
from M and N.  Null curves and the Weierstrass relation are read on the
source grid by pulling xi-derivatives back through DPsi (second order),
one block of rows at a time: each block reads a two-row halo on either
side, so every difference it keeps is the whole grid's, and no complex
field is held on the whole grid.  The relation reads both sides and the
minimal side's holomorphy through the one pullback of each block.
Only ``resample_to_chart`` inverts the chart: damped Newton from an
affine seed (no nearest-node search) on DPsi differenced from M and N,
bilinear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged, TargetOutsideImage, ValidationError
from .fields import GridDomain, HeightMap, ScalarField, diff_x, diff_y
from .systems import SurfaceReading, read_surface
from .twin import TwinPair


@dataclass
class ConformalChart:
    source: HeightMap
    M: ScalarField
    N: ScalarField
    J_psi: ScalarField  # 2 + E/w + G/w

    @property
    def xi1(self) -> ScalarField:  # x + M
        return ScalarField(self.source.domain, self.M.values + self.source.domain.xs)

    @property
    def xi2(self) -> ScalarField:  # y + N
        return ScalarField(self.source.domain, self.N.values + self.source.domain.ys[:, None])


@dataclass
class NullCurveField:
    holomorphy_residual: float
    nullity_residual: float


def build_chart(f: HeightMap | SurfaceReading, basepoint=(0, 0), tol=None) -> ConformalChart:
    """The chart of a minimal graph, or of the map of its euclidean reading:
    its lift M, N and J_psi = 2 + E/w + G/w."""
    reading = read_surface(f, "euclidean", tol)
    M, N = reading.potentials(basepoint)
    Ew, _, Gw = reading.over_area
    # not summed in place: summed into 2 + E/w, the chart benchmark's peak
    # RSS read 125-126 MB, not 118, at seeds 1, 2, 3 and 6 (its heap layout)
    return ConformalChart(reading.h, M, N, ScalarField(reading.h.domain, 2.0 + Ew + Gw))


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
    dom = chart.source.domain
    if min(dom.nx, dom.ny) < 2 * m + 2:
        raise ValidationError(f"target grid needs at least {2 * m + 2} nodes per axis")
    xi1 = chart.xi1.values[m:-m, m:-m]
    xi2 = chart.xi2.values[m:-m, m:-m]
    lo1, hi1 = xi1[:, 0].max(), xi1[:, -1].min()
    lo2, hi2 = xi2[0, :].max(), xi2[-1, :].min()
    if not (hi1 > lo1 and hi2 > lo2):
        raise TargetOutsideImage("image of the interior has no inscribed rectangle")
    return GridDomain.from_bounds(lo1, lo2, hi1, hi2, dom.nx, dom.ny)


def _invert_chart(chart: ConformalChart, target: GridDomain):
    """Newton-invert Psi at every target node; returns preimages (x, y)
    and their ``_cell``, which the last residual already located.

    Psi is the gradient of the strongly convex (x^2 + y^2)/2 + h, so damped
    Newton converges from any seed: the affine map of the xi bounding box
    onto the source rectangle.  Each point is evaluated once: the damping
    trial that ends the halving is the next iterate.  Newton's matrix is
    DPsi = I + (M_x, M_y; N_x, N_y) differenced from the chart's nodes, its
    off-diagonal symmetrised (both equal F/w), so three arrays hold it."""
    dom = chart.source.domain
    M, N = chart.M.values, chart.N.values
    off = 0.5 * (diff_y(M, dom.dy) + diff_x(N, dom.dx))
    Mx, Ny = diff_x(M, dom.dx), diff_y(N, dom.dy)
    t1, t2 = target.meshgrid()

    def residual(x, y):
        cell = _cell(dom, x, y)
        r1 = x + _bilinear(M, cell) - t1
        r2 = y + _bilinear(N, cell) - t2
        return r1, r2, np.hypot(r1, r2), cell

    def seed(t, xi, a, b):  # the affine map of xi's range onto [a, b]
        return a + (t - xi.min()) * ((b - a) / np.ptp(xi))

    x, y = seed(t1, chart.xi1.values, dom.x0, dom.x1), seed(t2, chart.xi2.values, dom.y0, dom.y1)
    r = residual(x, y)
    for _ in range(50):
        r1, r2, rnorm, cell = r
        if rnorm.max() <= 1e-12:
            break
        a = 1.0 + _bilinear(Mx, cell)
        b = _bilinear(off, cell)
        d = 1.0 + _bilinear(Ny, cell)
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


# rows per block of the null-curve kernels: _BLOCK_ROWS on grids up to 260
# rows, which keeps their traced peaks, and a 16th of the kept rows above
# (32 at 513^2), which keeps each block's halo recomputation and call
# overhead a fixed share of its work.  Each block reads _HALO more rows on
# each side, so every central difference it keeps is the whole grid's: phi
# differences xi and the heights once, dbar differences phi
_BLOCK_ROWS = 16
_HALO = 2


def _blocks(chart: ConformalChart, *maps: HeightMap):
    """Row blocks of the null-curve residuals, ``maps`` on the chart's grid.

    Each block keeps some of the rows ``_MARGIN_CELLS`` rings in and reads
    them with their halo; it yields the rows it reads, ``_pullback`` on
    them, and the block's nullity ring (kept rows) and holomorphy ring (one
    ring further in) as indices into the block."""
    dom = chart.source.domain
    if any(h.domain != dom for h in maps):
        raise ValidationError("height map and chart must share the source grid")
    if min(dom.nx, dom.ny) < 2 * _MARGIN_CELLS + 3:
        raise ValidationError(f"null curve needs at least {2 * _MARGIN_CELLS + 3} nodes per axis")
    m = _MARGIN_CELLS
    step = max(_BLOCK_ROWS, -(-(dom.ny - 2 * m) // 16))
    for r0 in range(m, dom.ny - m, step):
        r1 = min(r0 + step, dom.ny - m)
        lo = r0 - _HALO  # the block's first row
        rows = slice(lo, r1 + _HALO)
        null = slice(r0 - lo, r1 - lo), slice(m, -m)
        holo = slice(max(r0, m + 1) - lo, min(r1, dom.ny - m - 1) - lo), slice(m + 1, -m - 1)
        yield rows, *_pullback(chart, rows), null, holo


def _pullback(chart: ConformalChart, rows: slice):
    """A, B of d/dxi = (DPsi)^{-T} d/d(x, y) = A d/dx + B d/dy on the source
    ``rows``, DPsi differenced from the chart's nodes there: (xi2_y + i
    xi1_y)/det and -(xi2_x + i xi1_x)/det from real products with 1/det, the
    bits of numpy's complex / real, (a + b 0)(1/det) (Smith, CACM 5, 1962),
    wherever det > 0 and no derivative of xi is -0.0 (any chart of ``build_chart``)."""
    dom = chart.source.domain
    xi1 = chart.M.values[rows] + dom.xs
    xi2 = chart.N.values[rows] + dom.ys[rows, None]
    xi1_x, xi1_y = diff_x(xi1, dom.dx), diff_y(xi1, dom.dy)
    xi2_x, xi2_y = diff_x(xi2, dom.dx), diff_y(xi2, dom.dy)
    inv = xi1_x * xi2_y
    inv -= xi1_y * xi2_x
    np.divide(1.0, inv, out=inv)
    A, B = np.empty(inv.shape, complex), np.empty(inv.shape, complex)
    np.multiply(xi2_y, inv, out=A.real)
    np.multiply(xi1_y, inv, out=A.imag)
    np.negative(inv, out=inv)
    np.multiply(xi2_x, inv, out=B.real)
    np.multiply(xi1_x, inv, out=B.imag)
    return A, B


def _phi(c: np.ndarray, A, B, dom: GridDomain) -> np.ndarray:
    """A c_x + B c_y: the null-curve component of the height ``c``."""
    p = np.multiply(A, diff_x(c, dom.dx))
    p += B * diff_y(c, dom.dy)
    return p


def _abs_max(v: np.ndarray, ring) -> float:
    """max |v| over the index ``ring`` of a block; 0 on a ring with no rows."""
    return float(np.abs(v[ring]).max(initial=0.0))


def _dbar(p: np.ndarray, Ac, Bc, dom: GridDomain) -> np.ndarray:
    """dbar p = conj(A) p_x + conj(B) p_y; ``Ac``, ``Bc`` are conj(A), conj(B).

    Each complex product goes to an array that is neither operand: numpy
    may take another loop for an aliased output, and its SIMD complex
    multiply is not bitwise commutative."""
    px = diff_x(p, dom.dx)
    d = np.multiply(Ac, px)
    d += np.multiply(Bc, diff_y(p, dom.dy), out=px)
    return d


def null_curve(h: HeightMap, chart: ConformalChart) -> NullCurveField:
    """phi_k = dF_k/dxi1 - i dF_k/dxi2 of F = (x, y, h_1..h_n) on the source
    grid: d = A d/dx + B d/dy and dbar = conj(A) d/dx + conj(B) d/dy from
    ``_pullback``.  Nullity, the euclidean sum of phi_k^2, is taken
    ``_MARGIN_CELLS`` rings in, holomorphy a ring further, one row block of
    ``_blocks`` at a time, and each block's maxima fold into the grid's.
    The split nullity of a maximal side is ``verify_weierstrass_twin``'s."""
    dom = h.domain
    maxima = []
    for rows, A, B, null_ring, holo_ring in _blocks(chart, h):
        Ac, Bc = A.conj(), B.conj()
        holo = [_abs_max(_dbar(v, Ac, Bc, dom), holo_ring) for v in (A, B)]
        null = A * A
        null += B * B
        for c in h.components:
            p = _phi(c[rows], A, B, dom)
            holo.append(_abs_max(_dbar(p, Ac, Bc, dom), holo_ring))
            null += p * p
        maxima.append((max(holo), _abs_max(null, null_ring)))
    return NullCurveField(*np.max(maxima, axis=0).tolist())


def verify_weierstrass_twin(pair: TwinPair, chart: ConformalChart) -> dict:
    """Residual of phihat_{k+2} = -i phi_{k+2}, ``_MARGIN_CELLS`` rings in,
    the holomorphy of the minimal side's null curve and the nullity of
    both sides'; one pullback through the chart serves both sides.

    phihat_1 = phi_1 and phihat_2 = phi_2 hold exactly: both sides read
    (x, y) through the one chart.  So ``max_residual``, the largest
    relation residual, equals ``height_residual``.  Every field is taken
    one row block of ``_blocks`` at a time, and each block's maxima fold
    into the grid's."""
    f, g = pair.f, pair.g
    if f.n != g.n:
        raise ValidationError(
            f"twin sides differ: {f.n} component(s) on {f.domain} and {g.n} on {g.domain}"
        )
    dom = f.domain
    maxima = []
    for rows, A, B, null_ring, holo_ring in _blocks(chart, f, g):
        Ac, Bc = A.conj(), B.conj()
        holo = [_abs_max(_dbar(v, Ac, Bc, dom), holo_ring) for v in (A, B)]
        null_f, tail_g, r = A * A, 0, 0.0
        null_f += B * B
        for c, chat in zip(f.components, g.components):
            p = _phi(c[rows], A, B, dom)
            holo.append(_abs_max(_dbar(p, Ac, Bc, dom), holo_ring))
            null_f += p * p
            rel = np.multiply(1j, p)
            q = _phi(chat[rows], A, B, dom)
            tail_g += q * q
            r = max(r, _abs_max(np.add(q, rel, out=rel), null_ring))
        # the sum of q^2 before it is subtracted: term by term rounds otherwise once n >= 2
        null_g = A**2 + B**2 - tail_g
        maxima.append((r, max(holo), _abs_max(null_f, null_ring), _abs_max(null_g, null_ring)))
    r, holo, null_f, null_g = np.max(maxima, axis=0).tolist()
    return {
        "height_residual": r,
        "max_residual": r,
        "holomorphy_residual_min_side": holo,
        "nullity_residual_min_side": null_f,
        "nullity_residual_max_side": null_g,
    }
