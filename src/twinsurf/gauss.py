"""Generalized Gauss map into the complex hyperquadric, quadric membership,
hyperplane-degeneracy fits, planarity scoring, and the closed-form Gauss
field of unimodular-Hessian gradient graphs.

A Gauss field is one complex ``(ny, nx, n+2)`` array: the homogeneous
coordinates z_1 .. z_{n+2} of one point of the quadric per grid node
(1-based component indices in the API).  Points are stored as concrete
unit vectors with a fixed representative: unit norm and positive real
part of the first component whose modulus exceeds a small threshold.
That gauge makes fields continuous wherever the underlying map is and
comparable nodewise.  A field is built one block of rows at a time in
real arithmetic: each block's real and imaginary parts are divided by
the node norm, the square root of their summed squares, into the
field's float view, and only nodes whose z_1 is not already real and
above the threshold are gauged; no whole-grid temporary is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    NotUnimodular,
    SignChange,
    ValidationError,
)
from .fields import (
    HeightMap,
    ScalarField,
    first_fundamental_form,
    hessian,
    interior_max,
)
from .systems import SurfaceReading, default_tol, read_surface

_FIRST_NONZERO_TOL = 1e-13
# hyperplane fits: z_j must clear _FIRST_NONZERO_TOL on this share of the
# nodes, and |Im lambda| above the threshold marks a non-real relation
_MIN_VALID_FRACTION = 0.99
_NONREAL_THRESHOLD = 1e-8
# rows per block of the field's build, whose temporaries are a few real
# arrays of the block's shape
_BLOCK_ROWS = 32


@dataclass
class HyperplaneFit:
    i: int
    j: int
    lam: complex
    residual: float
    is_nonreal: bool


def normalize_projective(components) -> np.ndarray:
    """The ``(ny, nx, n+2)`` field of ``components``, each node scaled to
    unit norm and a positive-real first non-negligible component."""
    comps = [np.asarray(c, dtype=complex) for c in components]
    if any(c.shape != comps[0].shape for c in comps):
        raise ValidationError("components differ in shape")
    return _normalized(
        comps[0].shape, len(comps),
        lambda rows: [p for c in comps for p in (c[rows].real, c[rows].imag)],
    )


def _normalized(shape, m: int, planes) -> np.ndarray:
    """The ``shape + (m,)`` field whose block of rows ``rows`` is
    ``planes(rows)`` (re z_1, im z_1, re z_2, ...: real arrays of the
    block's shape, or scalars) over its node norm, gauged; built
    ``_BLOCK_ROWS`` rows at a time.  The norm is the square root of the
    planes' squares added in plane order; each plane is divided into the
    field's float view out of place (numpy 2.4.6 miscomputes an in-place
    unary ufunc on a view of 64-byte stride, as the n = 2 field's planes
    are)."""
    z = np.empty(shape + (m,), dtype=complex)
    for r0 in range(0, shape[0], _BLOCK_ROWS):
        rows = slice(r0, r0 + _BLOCK_ROWS)
        block, ps = z[rows], planes(rows)
        norm = np.zeros(block.shape[:-1])
        t = np.empty_like(norm)
        for p in ps:
            norm += np.square(p, out=t)
        np.sqrt(norm, out=norm)
        if not norm.all():
            raise ValidationError("zero homogeneous vector")
        v = block.view(float)
        for j, p in enumerate(ps):
            np.divide(p, norm, out=v[..., j])
        _gauge(block)
    return z


def _gauge(z: np.ndarray) -> None:
    """Turn each node of ``z`` in place by the phase that makes its first
    component with |z_k| > tol positive real.  A node whose z_1 is real and
    above tol, as on a graph with |grad f| below ~7e12, is left as it is."""
    todo = (z[..., 0].imag != 0) | ~(z[..., 0].real > _FIRST_NONZERO_TOL)
    if not todo.any():
        return
    w = z[todo]
    phase = np.ones(w.shape[:-1], dtype=complex)
    fixed = np.zeros(w.shape[:-1], dtype=bool)
    for k in range(w.shape[-1]):
        sel = (~fixed) & (np.abs(w[..., k]) > _FIRST_NONZERO_TOL)
        zk = w[..., k][sel]
        r = np.abs(zk)
        phase[sel] = np.divide(np.conj(zk, out=zk), r, out=zk)
        fixed |= sel
        if fixed.all():
            break
    w *= phase[..., None]
    z[todo] = w


def gauss_map(f: HeightMap | SurfaceReading) -> np.ndarray:
    """[G/w, i - F/w, (G/w) f_k,x - (F/w) f_k,y + i f_k,y, ...] normalized,
    of a height map or of the map of its euclidean reading.

    The formula is evaluated for any height map; it lands on the
    hyperquadric identically (an algebraic identity), minimality is only
    needed for the geometric interpretation.  Each row block takes its own
    metric from its rows of the gradients and writes the real and
    imaginary parts of each z_k, normalized, into the field.  z_1 = G/w is
    real and positive, so the gauge turns no node where |grad f| is below
    ~7e12 (there z_1 stays above its threshold).
    """
    if isinstance(f, SurfaceReading):
        read_surface(f)  # a split reading is refused
        f = f.h

    def planes(rows):
        grads = [(a[rows], b[rows]) for a, b in f.gradients]
        m = first_fundamental_form(grads, "euclidean")  # its mask is all true
        Fw = np.divide(m.F, m.omega, out=m.F)
        Gw = np.divide(m.G, m.omega, out=m.G)
        out = [Gw, 0.0, np.subtract(0.0, Fw), 1.0]
        for a, b in grads:
            re = np.multiply(Gw, a)
            re -= np.multiply(Fw, b, out=m.E)
            out += [re, b]
        return out

    return _normalized(f.domain.shape, f.n + 2, planes)


def quadric_residual(g: np.ndarray) -> float:
    """max nodewise |sum_k z_k^2| (0 exactly on the hyperquadric)."""
    s = sum(c * c for c in np.moveaxis(g, -1, 0))
    return float(np.abs(s).max())


def hyperplane_fit(g: np.ndarray, i: int, j: int) -> HyperplaneFit:
    """Least-squares lambda with z_i ~ lambda z_j over nodes where z_j is
    bounded away from zero (1-based component indices)."""
    for k in (i, j):
        if not 1 <= k <= g.shape[-1]:
            raise ValidationError(f"component index {k} out of range 1..{g.shape[-1]}")
    zi, zj = g[..., i - 1], g[..., j - 1]
    valid = np.abs(zj) > _FIRST_NONZERO_TOL
    if valid.mean() < _MIN_VALID_FRACTION:
        raise DegenerateFit(
            f"z_{j} negligible on {(1 - valid.mean()) * 100:.1f}% of nodes"
        )
    zi_v, zj_v = zi[valid], zj[valid]
    lam = complex(np.vdot(zj_v, zi_v) / np.vdot(zj_v, zj_v))
    residual = float(np.abs(zi_v - lam * zj_v).max())
    return HyperplaneFit(i, j, lam, residual, abs(lam.imag) > _NONREAL_THRESHOLD)


# planarity tiles: an 8 x 8 partition of the grid; tile-pair angle bounds
# are padded past arccos's rounding near 1 (~1.5e-8 rad)
_TILES, _ANGLE_PAD = 8, 1e-6
# planarity_score takes all pairs among a fixed-seed subsample above this
_MAX_NODES = 4096


def _live_tiles(z, iy, ix, shape):
    """Rows of ``z`` (nodes (iy, ix) of a ``shape`` grid) by tile, and whether
    each tile pair can hold a pair within 1e-12 of the largest 1 - |<p,q>|^2."""
    tile = (iy * _TILES // shape[0]) * _TILES + ix * _TILES // shape[1]
    order = np.argsort(tile, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(tile[order])) + 1)
    ref = z[[g[0] for g in groups]]
    near = [np.abs(z[g] @ ref[i].conj()).min() for i, g in enumerate(groups)]
    radius = np.arccos(np.minimum(1.0, near))
    inner = np.abs(ref.conj() @ ref.T)
    bound = radius[:, None] + np.arccos(np.minimum(1.0, inner)) + radius + _ANGLE_PAD
    lower = (1.0 - inner**2).max()  # realized by a reference pair
    return groups, np.sin(np.minimum(bound, np.pi / 2)) ** 2 >= lower - 1e-12


def planarity_score(g: np.ndarray) -> float:
    """Max pairwise Fubini-Study chordal distance sqrt(1 - |<z_p, z_q>|^2).

    All node pairs when the grid has at most ``_MAX_NODES`` nodes; otherwise
    a fixed-seed subsample of ``_MAX_NODES`` nodes (all pairs among them),
    deterministic across runs and thread counts.

    A BLAS Gram pass gives each row p its largest 1 - |<p,q>|^2; only rows
    within 1e-12 of the overall largest get the exact rejection form below.
    Both forms round to ~1e-15, so the extreme row is always among them.
    The Gram pass skips tile pairs that cannot hold the extreme.  With
    theta = arccos |<p,q>| the Fubini-Study distance, every pair of tiles
    I, J of an 8 x 8 partition of the grid has theta <= r_I + theta(c_I, c_J)
    + r_J (reference nodes c_I, radii r_I = max_p theta(c_I, p)); the bound
    is padded by 1e-6 rad and clipped at pi/2.  A pair with sin^2(bound)
    1e-12 below the farthest reference pair's 1 - |<c_I,c_J>|^2 is outside
    the band, so band and value are those of all pairs.  On a
    (near-)constant map no pair is skipped and every row is refined.
    """
    z = g.reshape(-1, g.shape[-1])
    nodes = np.arange(z.shape[0])
    if z.shape[0] > _MAX_NODES:
        rng = np.random.default_rng(2024)
        nodes = np.sort(rng.choice(z.shape[0], size=_MAX_NODES, replace=False))
        z = z[nodes]
    groups, live = _live_tiles(z, *np.divmod(nodes, g.shape[1]), g.shape[:2])
    far = np.full(z.shape[0], -np.inf)
    for rows, partners in zip(groups, live):
        if partners.any():
            cols = np.concatenate([groups[j] for j in np.flatnonzero(partners)])
            far[rows] = 1.0 - np.abs(z[rows].conj() @ z[cols].T).min(axis=1) ** 2
    band = far >= far.max() - 1e-12
    worst = 0.0
    chunk = 128
    for start in range(0, z.shape[0], chunk):
        rows = np.flatnonzero(band[start : start + chunk])
        if rows.size == 0:
            continue
        block = z[start : start + chunk]
        # the whole chunk's product, so each row rounds as in a full pass
        inner = (block.conj() @ z.T)[rows]  # (rows, m)
        # sqrt(1 - |<p,q>|^2) == ||q - <p,q> p|| for unit vectors; the
        # rejection form stays accurate for nearly parallel points where
        # 1 - |<p,q>|^2 cancels catastrophically.
        rej = z[None, :, :] - inner[:, :, None] * block[rows, None, :]
        dist = np.linalg.norm(rej, axis=-1)
        worst = max(worst, float(dist.max()))
    return worst


def jorgens_gauss(F: ScalarField) -> np.ndarray:
    """Closed-form Gauss field [eps F_yy, i - eps F_xy, eps + i F_xy, i F_yy]
    of the gradient graph of a unimodular-Hessian potential F.

    eps is the constant sign of F_xx + F_yy, which the unimodular Hessian
    equation forces to vanish nowhere.  F must be unimodular to ``default_tol``.
    """
    Fxx, Fxy, Fyy = hessian(F.values, F.domain)
    det_err, tol = interior_max(Fxx * Fyy - Fxy * Fxy - 1.0), default_tol(F.domain)
    if det_err > tol:
        raise NotUnimodular(f"max |det D^2 F - 1| = {det_err:.3e} > tol {tol:.3e}")
    trace = Fxx + Fyy
    if trace.max() > 0 and trace.min() < 0:
        raise SignChange(
            "F_xx + F_yy changes sign", nodes=np.argwhere(trace == 0)
        )
    eps = 1.0 if trace.flat[0] > 0 else -1.0
    comps = [
        eps * Fyy + 0j,
        1j - eps * Fxy,
        eps + 1j * Fxy,
        1j * Fyy,
    ]
    return normalize_projective(comps)
