"""Twin correspondence between minimal graphs in R^{n+2} and maximal
graphs in R^{n+2}_n with the same positive area-angle.

For each height component h_k with (a_k, b_k) = (dh_k/dx, dh_k/dy) the
twin gradient on a euclidean source is

    (dg_k/dx, dg_k/dy) = (-(E/w) b_k + (F/w) a_k, (G/w) a_k - (F/w) b_k),

a closed 1-form exactly when the minimal surface system holds in
divergence form; it is integrated to g_k anchored at the basepoint.  The
backward direction is the same relation read with the hatted (split)
coefficients and the opposite sign, so one routine, parameterised by the
signature of its source, serves both directions and their involution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AreaAngleViolation,
    NotMinimal,
    NotSpacelike,
    ValidationError,
)
from .fields import (
    HeightMap,
    MetricData,
    ScalarField,
    first_fundamental_form,
    integrate_exact_form,
    jacobian_data,
)
from .systems import maximal_residual, minimal_residual


def default_tol(domain) -> float:
    """Declared slack for residual preconditions: 50 h^2 (scaled).

    A spacing so large that 50 h^2 is not a finite float is rejected.
    """
    try:
        tol = 50.0 * domain.h**2
    except OverflowError:  # float ** raises where * gives inf
        tol = np.inf
    if not np.isfinite(tol):
        raise ValidationError(f"grid spacing {domain.h:.3e} overflows the tolerance 50 h^2")
    return tol


@dataclass
class TwinDiagnostics:
    c1_residual: float  # integrability: FD gradient of g vs twin relation
    c2_residual: float  # Jacobian preservation
    c3_residual: float  # angle duality  |w^ w - sin^2(Theta)|
    c4_residual: float  # conformal equivalence of the metric ratios
    involution_residual: float  # |f - twin(twin(f))| after re-anchoring

    def to_report(self):
        return {
            "c1_residual": self.c1_residual,
            "c2_residual": self.c2_residual,
            "c3_residual": self.c3_residual,
            "c4_residual": self.c4_residual,
            "involution_residual": self.involution_residual,
        }


@dataclass
class TwinPair:
    f: HeightMap
    g: HeightMap
    diagnostics: TwinDiagnostics
    basepoint: tuple
    tol: float


def _twin_gradient(h: HeightMap, metric: MetricData, k: int):
    """Twin gradient of component k; the split (backward) relation is the
    euclidean one negated.  The sign multiplies each product, which keeps
    the rounding of both directions exact, signed zeros included."""
    E, F, G, w = metric.E, metric.F, metric.G, metric.omega
    a, b = h.alpha(k), h.beta(k)
    s = -1.0 if metric.signature == "euclidean" else 1.0
    return (s * (E / w) * b - s * (F / w) * a, s * (F / w) * b - s * (G / w) * a)


def _interior_max(arr):
    return float(np.abs(arr[1:-1, 1:-1]).max())


def require_residual(res, tol):
    """Residual precondition: NOT_MINIMAL when the scaled residual of the
    minimal (or maximal) system exceeds ``tol``."""
    worst = res.max_abs("scaled")
    if worst > tol:
        kind = res.op.split("_")[0]
        raise NotMinimal(f"scaled {kind} residual {worst:.3e} > tol {tol:.3e}")


def _diagnostics(metric_f, metric_g, jac_f, jac_g):
    wf, wg = metric_f.omega, metric_g.omega
    c2 = 0.0
    for key in jac_f.pairs:
        c2 = max(c2, _interior_max(jac_f.pairs[key] - jac_g.pairs[key]))
    sin2 = 1.0 - np.minimum(jac_f.norm, 1.0) ** 2  # sin^2(arccos ||J||)
    c3 = _interior_max(wf * wg - sin2)
    c4 = max(
        _interior_max(metric_f.E / wf - metric_g.E / wg),
        _interior_max(metric_f.F / wf - metric_g.F / wg),
        _interior_max(metric_f.G / wf - metric_g.G / wg),
    )
    return c2, c3, c4


def _anchored_difference(a: HeightMap, b: HeightMap, basepoint):
    """Max deviation after removing one additive constant per component."""
    ix, iy = basepoint
    out = 0.0
    for ca, cb in zip(a.components, b.components):
        d = ca - cb
        out = max(out, float(np.abs(d - d[iy, ix]).max()))
    return out


def _twin(src: HeightMap, signature, basepoint, tol, with_involution) -> TwinPair:
    """Twin of ``src``: its maximal twin when ``signature`` is euclidean,
    the minimal graph it is the twin of when split."""
    if tol is None:
        tol = default_tol(src.domain)
    dom = src.domain
    minimal = signature == "euclidean"
    metric_src = first_fundamental_form(src, signature)
    if not metric_src.mask.all():
        raise NotSpacelike("input not spacelike", nodes=metric_src.invalid_nodes)
    jac_src = jacobian_data(src)
    if not jac_src.has_positive_area_angle:
        raise AreaAngleViolation("||J|| >= 1", nodes=jac_src.violations)
    res = minimal_residual(src) if minimal else maximal_residual(src)

    # closedness of the twin gradient fields is the primary garbage-in
    # guard (it is the surface system in divergence form), so it is
    # checked, by the integration, before the residual precondition
    grads = [_twin_gradient(src, metric_src, k) for k in range(src.n)]
    comps = [
        integrate_exact_form(
            ScalarField(dom, P), ScalarField(dom, Q), basepoint, tol, res.scale
        ).values
        for P, Q in grads
    ]
    require_residual(res, tol)
    # diagnostics are computed from the raw node values (finite-difference
    # gradients), so the identities are checked honestly ...
    out_raw = HeightMap(dom, comps)
    c1 = 0.0
    for k, (P, Q) in enumerate(grads):
        c1 = max(
            c1,
            _interior_max(out_raw.alpha(k) - P),
            _interior_max(out_raw.beta(k) - Q),
        )
    metric_out = first_fundamental_form(out_raw, "split" if minimal else "euclidean")
    if not metric_out.mask.all():
        raise NotSpacelike("twin output not spacelike", nodes=metric_out.invalid_nodes)
    jac_out = jacobian_data(out_raw)
    if minimal:
        c2, c3, c4 = _diagnostics(metric_src, metric_out, jac_src, jac_out)
    else:
        c2, c3, c4 = _diagnostics(metric_out, metric_src, jac_out, jac_src)

    # ... but the returned map carries the twin-relation gradients, which
    # define the twin exactly; re-differencing the integrated values would
    # stack one-sided stencils twice near the boundary
    out = HeightMap(dom, comps, grads)

    inv = float("nan")
    if with_involution:
        back = _twin(out, metric_out.signature, basepoint, tol, False)
        inv = _anchored_difference(src, back.f if minimal else back.g, basepoint)

    diag = TwinDiagnostics(c1, c2, c3, c4, inv)
    f, g = (src, out) if minimal else (out, src)
    return TwinPair(f, g, diag, basepoint, tol)


def twin_forward(
    f: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinPair:
    """Build the twin maximal graph of the minimal graph ``f``."""
    return _twin(f, "euclidean", basepoint, tol, True)


def twin_backward(
    g: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinPair:
    """Recover the minimal graph whose twin is the maximal graph ``g``."""
    return _twin(g, "split", basepoint, tol, True)


def verify_twin(pair: TwinPair) -> TwinDiagnostics:
    """Recompute every diagnostic from the raw node values of the pair."""
    f = HeightMap(pair.f.domain, pair.f.components)
    g = HeightMap(pair.g.domain, pair.g.components)
    if f.domain != g.domain or f.n != g.n:
        raise ValidationError(
            f"twin sides differ: {f.n} component(s) on {f.domain} "
            f"and {g.n} on {g.domain}"
        )
    metric_f = first_fundamental_form(f, "euclidean")
    metric_g = first_fundamental_form(g, "split")
    c1 = 0.0
    for k in range(f.n):
        P, Q = _twin_gradient(f, metric_f, k)
        c1 = max(c1, _interior_max(g.alpha(k) - P), _interior_max(g.beta(k) - Q))
    c2, c3, c4 = _diagnostics(metric_f, metric_g, jacobian_data(f), jacobian_data(g))
    back = _twin(g, "split", pair.basepoint, pair.tol, False)
    inv = _anchored_difference(f, back.f, pair.basepoint)
    return TwinDiagnostics(c1, c2, c3, c4, inv)
