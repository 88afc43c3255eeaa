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
diagonalised by the discrete sine transform, which `numpy.fft.rfft` gives.
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
from .systems import maximal_residual, minimal_residual


@dataclass
class SolveResult:
    surface: HeightMap
    outer_iterations: int
    residual_report: object
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


def _apply(weights, u):
    """The stencil applied to full fields, edges included: interior values
    (leading axes are batched)."""
    ny, nx = u.shape[-2:]
    return sum(
        w * u[..., 1 + dj:ny - 1 + dj, 1 + di:nx - 1 + di] for (dj, di), w in weights.items()
    )


def _dst(v):
    """DST-I along the last axis, sum_j v_j sin(pi j k / (m + 1)) for k = 1..m:
    the real FFT of the odd extension [0, v, 0, -v reversed] is -2i times it."""
    m = v.shape[-1]
    w = np.zeros(v.shape[:-1] + (2 * m + 2,))
    w[..., 1:m + 1] = v
    w[..., m + 2:] = -v[..., ::-1]
    return np.fft.rfft(w)[..., 1:m + 1].imag * -0.5


def _poisson(domain, a):
    """The solve of P = a d_xx + (1 - a) d_yy, 5-point with zero Dirichlet
    edges, on interior-node arrays (leading axes are batched).

    The DST-I diagonalises each second difference; applied twice it is the
    identity times (m + 1) / 2, which the eigenvalue array absorbs.
    """
    ny, nx = domain.shape

    def eigenvalues(n, h):
        return -4.0 / h**2 * np.sin(0.5 * np.pi * np.arange(1, n - 1) / (n - 1)) ** 2

    # indexed (x, y): the y transform runs with the axes swapped
    inv = 4.0 / ((nx - 1) * (ny - 1)) / (
        a * eigenvalues(nx, domain.dx)[:, None] + (1.0 - a) * eigenvalues(ny, domain.dy)[None, :]
    )

    def solve(r):
        s = _dst(_dst(r).swapaxes(-1, -2)) * inv
        return _dst(_dst(s).swapaxes(-1, -2))

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
    can fail that test; for it the floor is `_SPACELIKE_MARGIN` times the
    margin of the initial guess.
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
        met = first_fundamental_form(HeightMap(domain, list(comps)), signature)
        disc = met.E * met.G - met.F**2
        return met, float(np.min(np.where(met.mask, disc, np.minimum(disc, 0.0))))

    met, m0 = metric(u)
    if m0 <= 0.0:
        raise SpacelikeUnreachable(
            f"initial guess is not spacelike (spacelike margin {m0:.3e})"
        )
    floor = _SPACELIKE_MARGIN * m0 if signature == "split" else 0.0

    inner = (slice(None), slice(1, -1), slice(1, -1))
    E, G = met.E[1:-1, 1:-1], met.G[1:-1, 1:-1]
    precondition = _poisson(domain, float(np.mean(G / (E + G))))
    # Anderson history: differences of consecutive steps f and of x + f, in
    # a ring of `_DEPTH` rows, with the Gram matrix of the f differences
    n = u[inner].size
    dfs, dgs, gram = np.empty((_DEPTH, n)), np.empty((_DEPTH, n)), np.empty((_DEPTH, _DEPTH))
    prev, pairs = None, 0
    history, best, since_best = [], np.inf, 0
    for outer in range(1, max_outer + 1):
        weights = _stencil(met, domain)
        R = -_apply(weights, u)
        scale = np.max(np.abs(weights[(0, 0)])) * max(1.0, float(np.max(np.abs(u))))
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
        step = 1.0
        for _ in range(40):
            trial = u.copy()
            trial[inner] += step * d.reshape(R.shape)
            met, m = metric(trial)
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
            return HeightMap(domain, list(u)), outer, history
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
