"""Dirichlet solvers for the minimal and maximal graph systems.

Both systems are quasilinear: at fixed coefficients E, F, G each component
satisfies the linear equation G u_xx - 2 F u_xy + E u_yy = 0.  We therefore
iterate Picard: freeze the coefficients of the current iterate, solve the
linear problem exactly, refresh the coefficients.  The linear problem is the
standard 9-point stencil (the mixed term on the four diagonal neighbors)
assembled over the interior nodes as one sparse matrix; it is LU-factored
once per Picard step and every component is solved against that factor.
The maximal system uses the hatted (split-signature) coefficients in the
same stencil and halves each Picard step until the iterate stays strictly
spacelike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import Diverged, MaxIterations, SpacelikeUnreachable, ValidationError
from .fields import GridDomain, HeightMap, first_fundamental_form
from .systems import maximal_residual, minimal_residual


@dataclass
class SolveOptions:
    max_outer: int = 200
    outer_tol: float = 1e-9
    spacelike_margin: float = 0.05


@dataclass
class SolveResult:
    surface: HeightMap
    outer_iterations: int
    residual_report: object
    update_history: list = field(default_factory=list)


def _transfinite(domain: GridDomain, bc: np.ndarray) -> np.ndarray:
    """Initial guess: transfinite interpolation of the boundary values."""
    ny, nx = domain.shape
    s = np.linspace(0.0, 1.0, nx)[None, :]
    t = np.linspace(0.0, 1.0, ny)[:, None]
    u = np.zeros_like(bc)
    u += (1 - t) * bc[0, :][None, :] + t * bc[-1, :][None, :]
    u += (1 - s) * bc[:, 0][:, None] + s * bc[:, -1][:, None]
    u -= (1 - s) * (1 - t) * bc[0, 0] + s * (1 - t) * bc[0, -1]
    u -= (1 - s) * t * bc[-1, 0] + s * t * bc[-1, -1]
    return u


def _frozen_solve(us, met, domain):
    """Solve G u_xx - 2 F u_xy + E u_yy = 0 for every component at `met`.

    Interior unknowns are numbered row by row, so the neighbor at (dj, di)
    sits on diagonal dj * (nx - 2) + di of the 9-point matrix; entries that
    would wrap from the last column of one row to the first of the next are
    zeroed.  The right-hand side is minus the same stencil applied to the
    boundary-only field, so each solution keeps its Dirichlet edges.
    """
    ny, nx = domain.shape
    inner = (slice(1, -1), slice(1, -1))
    cx = met.G[inner] / domain.dx**2
    cy = met.E[inner] / domain.dy**2
    cxy = met.F[inner] / (2.0 * domain.dx * domain.dy)
    n = cx.size
    edges = np.stack(us)
    edges[(slice(None),) + inner] = 0.0
    rhs = np.zeros((len(us), n))
    offsets, diagonals = [], []
    for (dj, di), w in {
        (0, 0): -2.0 * (cx + cy),
        (0, -1): cx, (0, 1): cx, (-1, 0): cy, (1, 0): cy,
        (-1, -1): -cxy, (1, 1): -cxy, (-1, 1): cxy, (1, -1): cxy,
    }.items():
        rhs -= (w * edges[:, 1 + dj:ny - 1 + dj, 1 + di:nx - 1 + di]).reshape(rhs.shape)
        d = w.copy()
        if di:
            d[:, 0 if di < 0 else -1] = 0.0
        k = dj * (nx - 2) + di
        offsets.append(k)
        diagonals.append(d.ravel()[:n - k] if k >= 0 else d.ravel()[-k:])
    A = sp.diags(diagonals, offsets, shape=(n, n), format="csc")
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", panel_size=4, relax=4)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise Diverged(f"frozen-coefficient operator is singular: {exc}") from exc
    interior = lu.solve(rhs.T)
    solved = [u.copy() for u in us]
    for c, v in enumerate(solved):
        v[inner] = interior[:, c].reshape(cx.shape)
    return solved


def _check_boundary(boundary, domain):
    bcs = [np.asarray(b, dtype=float) for b in boundary]
    for b in bcs:
        if b.shape != domain.shape:
            raise ValidationError(
                f"boundary shape {b.shape} != domain shape {domain.shape}"
            )
    return bcs


def _picard(domain, boundary, options, initial, signature):
    """Picard iteration shared by both systems.

    Each step moves toward the frozen-coefficient solution, halving the
    step until the spacelike margin stays above `floor`.  The margin is
    the smallest discriminant E G - F^2, counted as at most 0 at nodes
    outside the metric's mask (E <= 0: a negative-definite metric is not
    spacelike).  Only the split signature can fail that test; for it the
    floor is `spacelike_margin` times the margin of the initial guess.
    """
    opts = options or SolveOptions()
    if opts.max_outer < 1:
        raise ValidationError(f"max_outer must be at least 1, got {opts.max_outer}")
    bcs = _check_boundary(boundary, domain)
    if initial is not None:
        if initial.n != len(bcs):
            raise ValidationError("initial guess needs one component per boundary")
        us = [c.copy() for c in initial.components]
    else:
        us = [_transfinite(domain, b) for b in bcs]
    for u, b in zip(us, bcs):
        u[0, :], u[-1, :] = b[0, :], b[-1, :]
        u[:, 0], u[:, -1] = b[:, 0], b[:, -1]

    def metric(comps):
        met = first_fundamental_form(HeightMap(domain, comps), signature)
        disc = met.E * met.G - met.F**2
        return met, float(np.min(np.where(met.mask, disc, np.minimum(disc, 0.0))))

    met, m0 = metric(us)
    if m0 <= 0.0:
        raise SpacelikeUnreachable(
            f"initial guess is not spacelike (spacelike margin {m0:.3e})"
        )
    floor = opts.spacelike_margin * m0 if signature == "split" else 0.0

    history = []
    for outer in range(1, opts.max_outer + 1):
        proposals = _frozen_solve(us, met, domain)
        step = 1.0
        for _ in range(40):
            trial = [u + step * (v - u) for u, v in zip(us, proposals)]
            met, m = metric(trial)
            if m > floor:
                break
            step *= 0.5
        else:
            raise SpacelikeUnreachable(
                "could not keep the iterate spacelike at any step size"
            )
        delta = max(float(np.max(np.abs(t - u))) for t, u in zip(trial, us))
        us = trial
        history.append(delta)
        if delta > 1e6:
            raise Diverged(f"Picard update grew to {delta:.3e}")
        if delta < opts.outer_tol:
            return HeightMap(domain, us), outer, history
    raise MaxIterations(
        f"no convergence in {opts.max_outer} Picard iterations "
        f"(last update {history[-1]:.3e})"
    )


def solve_minimal(
    domain: GridDomain,
    boundary: list,
    options: SolveOptions | None = None,
    initial: HeightMap | None = None,
) -> SolveResult:
    """Solve the minimal graph system with Dirichlet data.

    `boundary` holds one (ny, nx) array per component; only its edge
    values are used.  Interior values of `initial`, when given, seed the
    Picard iteration; otherwise transfinite interpolation of the edges.
    """
    f, outer, history = _picard(domain, boundary, options, initial, "euclidean")
    return SolveResult(f, outer, minimal_residual(f), history)


def solve_maximal(
    domain: GridDomain,
    boundary: list,
    options: SolveOptions | None = None,
    initial: HeightMap | None = None,
) -> SolveResult:
    """Maximal-graph Dirichlet solver; iterates stay strictly spacelike.

    Each Picard step is damped toward the previous iterate until the
    spacelike discriminant keeps a relative margin of
    `options.spacelike_margin`.
    """
    g, outer, history = _picard(domain, boundary, options, initial, "split")
    return SolveResult(g, outer, maximal_residual(g), history)
