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


def gauss_map_alt(f: HeightMap) -> ProjectivePointField:
    """The equivalent [1 - iF/w, iE/w, ...] form; cross-oracle for gauss_map."""
    metric = first_fundamental_form(f, "euclidean")
    z1 = 1.0 - 1j * metric.F / metric.omega
    z2 = 1j * metric.E / metric.omega
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


def planarity_score(g: ProjectivePointField, max_nodes: int = 4096) -> float:
    """Max pairwise Fubini-Study chordal distance sqrt(1 - |<z_p, z_q>|^2).

    All node pairs when the grid has at most ``max_nodes`` nodes; otherwise
    a fixed-seed subsample of ``max_nodes`` nodes (all pairs among them),
    deterministic across runs and thread counts.

    A BLAS Gram pass gives each row p its largest 1 - |<p,q>|^2; only rows
    within 1e-12 of the overall largest get the exact rejection form below.
    Both forms round to ~1e-15, so the extreme row is always among them.
    On a (near-)constant map every row is, and all pairs are refined.
    """
    z = g.stack().reshape(-1, g.n_plus_2)
    if z.shape[0] > max_nodes:
        rng = np.random.default_rng(2024)
        idx = rng.choice(z.shape[0], size=max_nodes, replace=False)
        idx.sort()
        z = z[idx]
    starts = range(0, z.shape[0], 512)
    near = [np.abs(z[s : s + 512].conj() @ z.T).min(axis=1) for s in starts]
    far = 1.0 - np.concatenate(near) ** 2
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
