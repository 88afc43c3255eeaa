"""Generalized Gauss map into the complex hyperquadric, quadric membership,
hyperplane-degeneracy fits, planarity scoring, and the closed-form Gauss
field of unimodular-Hessian gradient graphs.

Projective points are stored as concrete unit vectors with a fixed
representative: unit norm and positive real part of the first component
whose modulus exceeds a small threshold.  That gauge makes fields
continuous wherever the underlying map is and comparable nodewise.
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
    GridDomain,
    HeightMap,
    ScalarField,
    first_fundamental_form,
    hessian,
)

_FIRST_NONZERO_TOL = 1e-13
# hyperplane fits: z_j must clear _FIRST_NONZERO_TOL on this share of the
# nodes, and |Im lambda| above the threshold marks a non-real relation
_MIN_VALID_FRACTION = 0.99
_NONREAL_THRESHOLD = 1e-8
# jorgens_gauss: largest accepted max |det D^2 F - 1| off the boundary
_DET_TOL = 1e-6


@dataclass
class ProjectivePointField:
    """Normalized homogeneous coordinates per node; components[k] is the
    complex array of z_{k+1} (1-based indexing in the API)."""

    domain: GridDomain
    components: list  # complex arrays

    def __post_init__(self):
        self.components = [np.asarray(c, dtype=complex) for c in self.components]
        for c in self.components:
            if c.shape != self.domain.shape:
                raise ValidationError("component shape mismatch")

    @property
    def n_plus_2(self):
        return len(self.components)

    def stack(self):
        """(ny, nx, n+2) complex array."""
        return np.stack(self.components, axis=-1)

    def component(self, index_1based: int):
        if not 1 <= index_1based <= len(self.components):
            raise ValidationError(
                f"component index {index_1based} out of range 1..{len(self.components)}"
            )
        return self.components[index_1based - 1]


@dataclass
class HyperplaneFit:
    i: int
    j: int
    lam: complex
    residual: float
    is_nonreal: bool


def normalize_projective(components) -> list:
    """Unit norm + positive-real first non-negligible component."""
    z = np.stack([np.asarray(c, dtype=complex) for c in components], axis=-1)
    norm = np.sqrt(np.sum(np.abs(z) ** 2, axis=-1))
    if np.any(norm == 0):
        raise ValidationError("zero homogeneous vector")
    z = z / norm[..., None]
    # phase gauge from the first component with |z_k| > tol
    phase = np.ones(z.shape[:-1], dtype=complex)
    fixed = np.zeros(z.shape[:-1], dtype=bool)
    for k in range(z.shape[-1]):
        sel = (~fixed) & (np.abs(z[..., k]) > _FIRST_NONZERO_TOL)
        zk = z[..., k][sel]
        phase[sel] = np.conj(zk) / np.abs(zk)
        fixed |= sel
    return list(np.moveaxis(z * phase[..., None], -1, 0))


def gauss_map(f: HeightMap) -> ProjectivePointField:
    """[G/w, i - F/w, (G/w) f_k,x + (i - F/w) f_k,y, ...] normalized.

    The formula is evaluated for any height map; it lands on the
    hyperquadric identically (an algebraic identity), minimality is only
    needed for the geometric interpretation.
    """
    _, Fw, Gw = first_fundamental_form(f, "euclidean").over_area
    z1 = Gw + 0j
    z2 = 1j - Fw
    comps = [z1, z2]
    for k in range(f.n):
        comps.append(z1 * f.alpha(k) + z2 * f.beta(k))
    return ProjectivePointField(f.domain, normalize_projective(comps))


def quadric_residual(g: ProjectivePointField) -> float:
    """max nodewise |sum_k z_k^2| (0 exactly on the hyperquadric)."""
    s = sum(c * c for c in g.components)
    return float(np.abs(s).max())


def hyperplane_fit(g: ProjectivePointField, i: int, j: int) -> HyperplaneFit:
    """Least-squares lambda with z_i ~ lambda z_j over nodes where z_j is
    bounded away from zero (1-based component indices)."""
    zi, zj = g.component(i), g.component(j)
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


def planarity_score(g: ProjectivePointField) -> float:
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
    z = g.stack().reshape(-1, g.n_plus_2)
    nodes = np.arange(z.shape[0])
    if z.shape[0] > _MAX_NODES:
        rng = np.random.default_rng(2024)
        nodes = np.sort(rng.choice(z.shape[0], size=_MAX_NODES, replace=False))
        z = z[nodes]
    groups, live = _live_tiles(z, *np.divmod(nodes, g.domain.nx), g.domain.shape)
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


def jorgens_gauss(F: ScalarField) -> ProjectivePointField:
    """Closed-form Gauss field [eps F_yy, i - eps F_xy, eps + i F_xy, i F_yy]
    of the gradient graph of a unimodular-Hessian potential F.

    eps is the constant sign of F_xx + F_yy, which the unimodular Hessian
    equation forces to vanish nowhere.
    """
    dom = F.domain
    Fxx, Fxy, Fyy = hessian(F.values, dom)
    det_err = np.abs(Fxx * Fyy - Fxy * Fxy - 1.0)[1:-1, 1:-1].max()
    if det_err > _DET_TOL:
        raise NotUnimodular(f"max |det D^2 F - 1| = {det_err:.3e} > tol {_DET_TOL:.3e}")
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
    return ProjectivePointField(dom, normalize_projective(comps))
