"""Dirichlet solvers for the minimal and maximal graph systems.

Both systems are quasilinear: at fixed coefficients E, F, G each component
satisfies the linear equation G u_xx - 2 F u_xy + E u_yy = 0, discretised
by the standard 9-point stencil (the mixed term on the four diagonal
neighbors).  The discrete solution is the fixed point A(u) u = 0 on the
interior nodes, with A the stencil at the metric of u and the Dirichlet
edges held.  We reach it by a chord step (residual correction): the
operator is assembled over the interior nodes as one sparse matrix and
LU-factored at the initial guess, the transfinite interpolation of the
edges; each step forms the residual
R = -A(u) u at the current metric and corrects u by the solve of that one
factor against R, for every component at once.  When max |F| / sqrt(E G)
over the interior of the initial guess is at most `_CONTRACTION` (1/2),
that first factor keeps only the 5-point part of the stencil (centre and
the four axis neighbors): at frozen coefficients the mixed term is then
bounded, by AM-GM on the stencil symbol, by that ratio times the 5-point
part, so the chord step still shrinks the error at least 2x per step, and
the factor has about 40 % less fill.  R is always the 9-point residual, so
the fixed point and the stop rule are the same either way.  The operator is
factored again, with all 9 points at the current metric, only when an
update exceeds `_CONTRACTION` times the one before or the residual is not
the smallest so far.
Iteration stops when both the update and the scaled residual
max|R| / max|diag A| / max(1, max|u|) are below `_OUTER_TOL`.  When
`_STALL_STEPS` consecutive steps, each refactored, bring the residual no
lower than its smallest value, it has stalled; that, or `max_outer` steps
(`MAX_OUTER` by default) without convergence, raises `MaxIterations`.  The
maximal system uses the hatted (split-signature) coefficients in the same
stencil and halves each step until the iterate stays strictly spacelike.

scipy (the sparse matrix and SuperLU) is imported at the first
factorisation, not with this module: importing twinsurf loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, MaxIterations, SpacelikeUnreachable, ValidationError
from .fields import GridDomain, HeightMap, first_fundamental_form
from .systems import maximal_residual, minimal_residual


@dataclass
class SolveResult:
    surface: HeightMap
    outer_iterations: int
    residual_report: object
    update_history: list = field(default_factory=list)


# Default cap on chord steps; `solve --max-outer` starts from it.
MAX_OUTER = 200
# Both the update and the scaled residual must fall below this to converge.
_OUTER_TOL = 1e-9
# The max-norm residual of a converging iteration can rise for a step or
# two; this many steps without a new smallest residual count as a stall.
_STALL_STEPS = 5
# A maximal iterate keeps this share of the initial guess's spacelike margin.
_SPACELIKE_MARGIN = 0.05
# The operator is factored again when an update is more than this times
# the one before; the first factor leaves out the mixed term when its chord
# step contracts at least as fast: max |F| / sqrt(E G) at most this.
_CONTRACTION = 0.5


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


def _stencil(met, domain):
    """The 9-point weights at the interior nodes, keyed by neighbor (dj, di)."""
    inner = (slice(1, -1), slice(1, -1))
    cx = met.G[inner] / domain.dx**2
    cy = met.E[inner] / domain.dy**2
    cxy = met.F[inner] / (2.0 * domain.dx * domain.dy)
    return {
        (0, 0): -2.0 * (cx + cy),
        (0, -1): cx, (0, 1): cx, (-1, 0): cy, (1, 0): cy,
        (-1, -1): -cxy, (1, 1): -cxy, (-1, 1): cxy, (1, -1): cxy,
    }


def _mixed_ratio(met):
    """max |F| / sqrt(E G) over the interior: at frozen coefficients, a bound
    on the contraction of a chord step by the 5-point part of the stencil."""
    E, F, G = (a[1:-1, 1:-1] for a in (met.E, met.F, met.G))
    return float(np.max(np.abs(F) / np.sqrt(E * G)))


def _apply(weights, u):
    """The stencil applied to a full field, edges included: interior values."""
    ny, nx = u.shape
    return sum(
        w * u[1 + dj:ny - 1 + dj, 1 + di:nx - 1 + di] for (dj, di), w in weights.items()
    )


def splu(*args, **kwargs):
    """SuperLU factorisation, with scipy imported on the first solve only."""
    from scipy.sparse.linalg import splu

    return splu(*args, **kwargs)


def _factor(weights):
    """LU factor of the stencil restricted to the interior unknowns.

    Interior unknowns are numbered row by row, so the neighbor at (dj, di)
    sits on diagonal dj * (nx - 2) + di of the matrix; entries that would
    wrap from the last column of one row to the first of the next are
    zeroed.
    """
    from scipy.sparse import diags

    center = weights[(0, 0)]
    n = center.size
    offsets, diagonals = [], []
    for (dj, di), w in weights.items():
        d = w.copy()
        if di:
            d[:, 0 if di < 0 else -1] = 0.0
        k = dj * center.shape[1] + di
        offsets.append(k)
        diagonals.append(d.ravel()[:n - k] if k >= 0 else d.ravel()[-k:])
    A = diags(diagonals, offsets, shape=(n, n), format="csc")
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", panel_size=4, relax=4)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise Diverged(f"frozen-coefficient operator is singular: {exc}") from exc


def _check_boundary(boundary, domain):
    bcs = [np.asarray(b, dtype=float) for b in boundary]
    for b in bcs:
        if b.shape != domain.shape:
            raise ValidationError(
                f"boundary shape {b.shape} != domain shape {domain.shape}"
            )
    return bcs


def _chord(domain, boundary, max_outer, signature):
    """Chord iteration shared by both systems.

    Each step moves along the correction of the current factor, halving
    the step until the spacelike margin stays above `floor`.  The margin
    is the smallest discriminant E G - F^2, counted as at most 0 at nodes
    outside the metric's mask (E <= 0: a negative-definite metric is not
    spacelike).  Only the split signature can fail that test; for it the
    floor is `_SPACELIKE_MARGIN` times the margin of the initial guess.
    """
    if max_outer < 1:
        raise ValidationError(f"max_outer must be at least 1, got {max_outer}")
    bcs = _check_boundary(boundary, domain)
    us = [_transfinite(domain, b) for b in bcs]
    # the Coons patch gives (b + A) - A on the edges, not b bit for bit
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
    floor = _SPACELIKE_MARGIN * m0 if signature == "split" else 0.0

    inner = (slice(None), slice(1, -1), slice(1, -1))
    five_point = _mixed_ratio(met) <= _CONTRACTION
    lu, history, best, since_best = None, [], np.inf, 0
    for outer in range(1, max_outer + 1):
        weights = _stencil(met, domain)
        R = np.stack([-_apply(weights, u) for u in us])
        scale = np.max(np.abs(weights[(0, 0)])) * max(1.0, *(np.max(np.abs(u)) for u in us))
        residual = float(np.max(np.abs(R))) / scale
        if residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
            if since_best == _STALL_STEPS:
                raise MaxIterations(
                    f"residual stalled at {best:.3e} after {outer - 1} steps: none smaller "
                    f"in {since_best} more, refactored at each (last update {history[-1]:.3e})"
                )
        if lu is None and five_point:
            lu = _factor({k: w for k, w in weights.items() if 0 in k})
        elif lu is None or since_best or (
            len(history) > 1 and history[-1] > _CONTRACTION * history[-2]
        ):
            lu = _factor(weights)
        ds = np.zeros((len(us),) + domain.shape)
        ds[inner] = lu.solve(R.reshape(len(us), -1).T).T.reshape(R.shape)
        step = 1.0
        for _ in range(40):
            trial = [u + step * d for u, d in zip(us, ds)]
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
            raise Diverged(f"update grew to {delta:.3e}")
        if delta < _OUTER_TOL and residual < _OUTER_TOL:
            return HeightMap(domain, us), outer, history
    raise MaxIterations(
        f"no convergence in {max_outer} steps "
        f"(last update {history[-1]:.3e}, residual {residual:.3e})"
    )


def solve_minimal(domain: GridDomain, boundary: list, max_outer: int = MAX_OUTER) -> SolveResult:
    """Solve the minimal graph system with Dirichlet data.

    `boundary` holds one (ny, nx) array per component; only its edge
    values are used.  The iteration starts from the transfinite
    interpolation of the edges and takes at most `max_outer` steps.
    """
    f, outer, history = _chord(domain, boundary, max_outer, "euclidean")
    return SolveResult(f, outer, minimal_residual(f), history)


def solve_maximal(domain: GridDomain, boundary: list, max_outer: int = MAX_OUTER) -> SolveResult:
    """Maximal-graph Dirichlet solver; iterates stay strictly spacelike.

    Each step is damped toward the previous iterate until the
    spacelike discriminant keeps a relative margin of `_SPACELIKE_MARGIN`.
    """
    g, outer, history = _chord(domain, boundary, max_outer, "split")
    return SolveResult(g, outer, maximal_residual(g), history)
