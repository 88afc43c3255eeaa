"""Dirichlet solvers for the minimal and maximal graph systems.

Both systems are quasilinear: at fixed coefficients E, F, G each component
satisfies the linear equation G u_xx - 2 F u_xy + E u_yy = 0, discretised
by the standard 9-point stencil (the mixed term on the four diagonal
neighbors).  The discrete solution is the fixed point A(u) u = 0 on the
interior nodes, with A the stencil at the metric of u and the Dirichlet
edges held.  From the transfinite interpolation of the edges, each step
forms the residual R = -A(u) u at the current metric and the correction
d = P^-1 (R / (E+G)) for every component at once.  P = a d_xx + (1-a) d_yy
is the 5-point operator with Dirichlet edges, a the interior mean of
G / (E+G) on the initial guess: a separable preconditioner for the
nonseparable operator (Concus & Golub, SIAM J. Numer. Anal. 10(6), 1973),
diagonalised by two products per axis with its dense DST-I matrix (fast
diagonalisation: Lynch, Rice & Thomas, Numer. Math. 6, 1964).
The steps are mixed by Anderson acceleration of depth `_DEPTH` (Walker &
Ni, SIAM J. Numer. Anal. 49(4), 2011), its least squares solved on the
small Gram matrix; the mixing restarts on every step that sets no new
smallest residual.  Iteration stops when both the update and the scaled
residual max|R| / max|diag A| / max(1, max|u|) are below `_OUTER_TOL`.
When `_STALL_STEPS` consecutive steps bring the residual no lower than its
smallest value, it has stalled; that, or `max_outer` steps (`MAX_OUTER` by
default) without convergence, raises `MaxIterations`.  The maximal system
uses the hatted (split-signature) coefficients in the same stencil and
halves each mixed step until the iterate stays strictly spacelike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, MaxIterations, SpacelikeUnreachable, ValidationError
from .fields import GridDomain, HeightMap, first_fundamental_form
from .systems import ResidualReport, maximal_residual, minimal_residual


@dataclass
class SolveResult:
    surface: HeightMap
    outer_iterations: int
    residual_report: ResidualReport
    update_history: list = field(default_factory=list)


# Default cap on iteration steps; `solve --max-outer` starts from it.
MAX_OUTER = 200
# Both the update and the scaled residual must fall below this to converge.
_OUTER_TOL = 1e-9
# The max-norm residual of a converging iteration can rise for a step or
# two; this many steps without a new smallest residual count as a stall.
_STALL_STEPS = 5
# A maximal iterate keeps this share of the initial guess's spacelike margin.
_SPACELIKE_MARGIN = 0.05
# Anderson mixing combines at most this many previous steps.
_DEPTH = 10


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
    """The 9-point weights at the interior nodes: centre, x pair, y pair, mixed."""
    inner = (slice(1, -1), slice(1, -1))
    cx = met.G[inner] / domain.dx**2
    cy = met.E[inner] / domain.dy**2
    cxy = met.F[inner] / (2.0 * domain.dx * domain.dy)
    return -2.0 * (cx + cy), cx, cy, cxy


def _apply(weights, u):
    """The stencil applied to full fields, edges included: interior values
    (leading axes are batched)."""
    c, cx, cy, cxy = weights
    ny, nx = u.shape[-2:]
    s = [[u[..., j:ny - 2 + j, i:nx - 2 + i] for i in range(3)] for j in range(3)]
    return (c * s[1][1] + cx * (s[1][0] + s[1][2]) + cy * (s[0][1] + s[2][1])
            + cxy * (s[0][2] + s[2][0] - s[0][0] - s[2][2]))


def _sines(m):
    """The DST-I matrix, S_jk = sin(pi j k / (m + 1)) for j, k = 1..m, looked up
    in the 2 m + 2 sines of one period; S S = (m + 1) / 2 times the identity."""
    j = np.arange(1, m + 1)
    return np.sin(np.pi / (m + 1) * np.arange(2 * m + 2))[np.outer(j, j) % (2 * m + 2)]


def _poisson(domain, a):
    """The solve of P = a d_xx + (1 - a) d_yy, 5-point with zero Dirichlet
    edges, on interior-node arrays (leading axes are batched).

    The sine matrix of each axis diagonalises its second difference (fast
    diagonalisation); applied twice it is the identity times (m + 1) / 2,
    which the eigenvalue array absorbs.  Square grids share one matrix.
    """
    ny, nx = domain.shape

    def eigenvalues(n, h):
        return -4.0 / h**2 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) ** 2

    inv = 4.0 / ((nx - 1) * (ny - 1)) / (
        a * eigenvalues(nx, domain.dx)[None, :] + (1.0 - a) * eigenvalues(ny, domain.dy)[:, None]
    )
    sx = _sines(nx - 2)
    sy = sx if ny == nx else _sines(ny - 2)

    def solve(r):
        return sy @ ((sy @ r @ sx) * inv) @ sx

    return solve


def _check_boundary(boundary, domain):
    bcs = [np.asarray(b, dtype=float) for b in boundary]
    if not bcs:
        raise ValidationError("boundary needs at least one component")
    for b in bcs:
        if b.shape != domain.shape:
            raise ValidationError(
                f"boundary shape {b.shape} != domain shape {domain.shape}"
            )
    return bcs


def _iterate(domain, boundary, max_outer, signature):
    """Preconditioned, Anderson-mixed iteration shared by both systems.

    Each mixed step is halved toward the previous iterate until the
    spacelike margin stays above `floor`, and the mixing history is then
    cleared.  The margin is the smallest discriminant E G - F^2, counted as
    at most 0 at nodes outside the metric's mask (E <= 0: a
    negative-definite metric is not spacelike).  Only the split signature
    takes it, with the floor `_SPACELIKE_MARGIN` times the margin of the
    initial guess: the euclidean metric itself refuses E G - F^2 <= 0.
    The map of the accepted iterate is returned as it was read.
    """
    if max_outer < 1:
        raise ValidationError(f"max_outer must be at least 1, got {max_outer}")
    bcs = _check_boundary(boundary, domain)
    u = np.stack([_transfinite(domain, b) for b in bcs])
    # the Coons patch gives (b + A) - A on the edges, not b bit for bit
    for v, b in zip(u, bcs):
        v[0, :], v[-1, :] = b[0, :], b[-1, :]
        v[:, 0], v[:, -1] = b[:, 0], b[:, -1]

    def metric(comps):
        h = HeightMap(domain, list(comps))
        met = first_fundamental_form(h.gradients, signature)
        if signature == "euclidean":
            return h, met, np.inf
        disc = met.E * met.G - met.F**2
        return h, met, float(np.min(np.where(met.mask, disc, np.minimum(disc, 0.0))))

    h, met, m0 = metric(u)
    if m0 <= 0.0:
        raise SpacelikeUnreachable(
            f"initial guess is not spacelike (spacelike margin {m0:.3e})"
        )
    floor = _SPACELIKE_MARGIN * m0 if signature == "split" else 0.0

    inner = (slice(None), slice(1, -1), slice(1, -1))
    precondition = _poisson(domain, float(np.mean(met.G[1:-1, 1:-1] / (met.E + met.G)[1:-1, 1:-1])))
    # Anderson history: differences of consecutive steps f and of x + f, in
    # a ring of `_DEPTH` rows, with the Gram matrix of the f differences
    n = u[inner].size
    dfs, dgs, gram = np.empty((_DEPTH, n)), np.empty((_DEPTH, n)), np.empty((_DEPTH, _DEPTH))
    prev, pairs = None, 0
    history, best, since_best = [], np.inf, 0
    for outer in range(1, max_outer + 1):
        weights = _stencil(met, domain)
        R = -_apply(weights, u)
        scale = np.max(np.abs(weights[0])) * max(1.0, float(np.max(np.abs(u))))
        residual = float(np.max(np.abs(R))) / scale
        if residual < best:
            best, since_best = residual, 0
        else:
            since_best += 1
            if since_best == _STALL_STEPS:
                raise MaxIterations(
                    f"residual stalled at {best:.3e} after {outer - 1} steps: none smaller "
                    f"in {since_best} more, with the mixing restarted at each "
                    f"(last update {history[-1]:.3e})"
                )
            prev, pairs = None, 0
        x = u[inner].ravel()
        f = precondition(R / (met.E + met.G)[1:-1, 1:-1]).ravel()
        d = f
        if prev is not None:
            j, pairs = pairs % _DEPTH, pairs + 1
            k = min(pairs, _DEPTH)
            dfs[j] = f - prev[1]
            dgs[j] = x - prev[0] + dfs[j]
            gram[j, :k] = gram[:k, j] = dfs[:k] @ dfs[j]
            gamma = np.linalg.lstsq(gram[:k, :k], dfs[:k] @ f, rcond=None)[0]
            d = f - gamma @ dgs[:k]
        prev = x, f
        del h, met  # the trial's replace them: never hold both
        step = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[inner] += step * d.reshape(R.shape)
            h, met, m = metric(trial)
            if m > floor:
                break
            step *= 0.5
        else:
            raise SpacelikeUnreachable(
                "could not keep the iterate spacelike at any step size"
            )
        if step < 1.0:
            prev, pairs = None, 0
        delta = float(np.max(np.abs(trial - u)))
        u = trial
        history.append(delta)
        if delta > 1e6:
            raise Diverged(f"update grew to {delta:.3e}")
        if delta < _OUTER_TOL and residual < _OUTER_TOL:
            return h, outer, history
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
    f, outer, history = _iterate(domain, boundary, max_outer, "euclidean")
    return SolveResult(f, outer, minimal_residual(f), history)


def solve_maximal(domain: GridDomain, boundary: list, max_outer: int = MAX_OUTER) -> SolveResult:
    """Maximal-graph Dirichlet solver; iterates stay strictly spacelike.

    Each step is damped toward the previous iterate until the
    spacelike discriminant keeps a relative margin of `_SPACELIKE_MARGIN`.
    """
    g, outer, history = _iterate(domain, boundary, max_outer, "split")
    return SolveResult(g, outer, maximal_residual(g), history)
