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
``_integrate_twin`` checks a source and integrates its twin, and
``_diagnostics`` reads c1..c4 off the raw node values of one side;
construction, the involution and ``verify_twin`` share both, passing
each map's residual, metric and Jacobian data along instead of
recomputing them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    interior_max,
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


def resolve_tol(tol, domain) -> float:
    """``tol``, or ``default_tol(domain)`` for None.  A given tolerance must
    be finite and >= 0: no check ``worst > tol`` can fail against NaN or inf."""
    if tol is None:
        return default_tol(domain)
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


@dataclass
class TwinDiagnostics:
    c1_residual: float  # integrability: FD gradient of g vs twin relation
    c2_residual: float  # Jacobian preservation
    c3_residual: float  # angle duality  |w^ w - sin^2(Theta)|
    c4_residual: float  # conformal equivalence of the metric ratios
    involution_residual: float  # |f - twin(twin(f))| after re-anchoring

    def to_report(self):
        return asdict(self)


@dataclass
class TwinPair:
    f: HeightMap
    g: HeightMap
    diagnostics: TwinDiagnostics


def _twin_gradient(h: HeightMap, metric: MetricData, k: int):
    """Twin gradient of component k; the split (backward) relation is the
    euclidean one negated.  The sign multiplies each product, which keeps
    the rounding of both directions exact, signed zeros included."""
    Ew, Fw, Gw = metric.over_area
    a, b = h.alpha(k), h.beta(k)
    s = -1.0 if metric.signature == "euclidean" else 1.0
    return (s * Ew * b - s * Fw * a, s * Fw * b - s * Gw * a)


def require_residual(res, tol):
    """Residual precondition: NOT_MINIMAL when the scaled residual of the
    minimal (or maximal) system exceeds ``tol``."""
    worst = res.max_abs("scaled")
    if worst > tol:
        kind = res.op.split("_")[0]
        raise NotMinimal(f"scaled {kind} residual {worst:.3e} > tol {tol:.3e}")


def _residual(h: HeightMap, signature):
    return minimal_residual(h) if signature == "euclidean" else maximal_residual(h)


def _integrate_twin(src: HeightMap, signature, basepoint, tol, res=None, jac=None):
    """Check ``src`` (spacelike, area-angle, closedness of each twin
    gradient, which is the surface system in divergence form, then the
    residual) and integrate its twin.  ``res`` and ``jac`` are the
    residual and Jacobian data of ``src`` when the caller has them.
    Returns the twin's node values, the twin-relation gradients and the
    metric and Jacobian data of ``src``."""
    dom = src.domain
    if res is None:
        res = _residual(src, signature)
    metric = res.metric
    if not metric.mask.all():
        raise NotSpacelike("input not spacelike", nodes=metric.invalid_nodes)
    if jac is None:
        jac = jacobian_data(src)
    if not jac.has_positive_area_angle:
        raise AreaAngleViolation("||J|| >= 1", nodes=jac.violations)
    grads = [_twin_gradient(src, metric, k) for k in range(src.n)]
    comps = [
        integrate_exact_form(
            ScalarField(dom, P), ScalarField(dom, Q), basepoint, tol, res.scale
        ).values
        for P, Q in grads
    ]
    require_residual(res, tol)
    return comps, grads, metric, jac


def _diagnostics(out_raw: HeightMap, grads, metric_src: MetricData, jac_src, out_data=None):
    """c1..c4 of a twin pair, read from the raw node values ``out_raw`` of
    one side (finite-difference gradients, so the identities are checked
    honestly) and the twin-relation ``grads``, metric and Jacobian data of
    the other side, its source.  ``out_data`` is the metric and Jacobian
    data of ``out_raw`` when the caller has them; they are taken here
    otherwise, and a side that is not spacelike fails."""
    c1 = 0.0
    for k, (P, Q) in enumerate(grads):
        c1 = max(
            c1,
            interior_max(out_raw.alpha(k) - P),
            interior_max(out_raw.beta(k) - Q),
        )
    minimal = metric_src.signature == "euclidean"
    if out_data is None:
        metric_out = first_fundamental_form(out_raw, "split" if minimal else "euclidean")
        if not metric_out.mask.all():
            raise NotSpacelike("twin output not spacelike", nodes=metric_out.invalid_nodes)
        out_data = metric_out, jacobian_data(out_raw)
    metric_out, jac_out = out_data
    metric_f, metric_g = (metric_src, metric_out) if minimal else (metric_out, metric_src)
    jac_f, jac_g = (jac_src, jac_out) if minimal else (jac_out, jac_src)
    c2 = max([0.0] + [interior_max(J - jac_g.pairs[key]) for key, J in jac_f.pairs.items()])
    sin2 = 1.0 - np.minimum(jac_f.norm, 1.0) ** 2  # sin^2(arccos ||J||)
    c3 = interior_max(metric_f.omega * metric_g.omega - sin2)
    c4 = max(interior_max(a - b) for a, b in zip(metric_f.over_area, metric_g.over_area))
    return c1, c2, c3, c4


def _anchored_difference(a: list, b: list, basepoint):
    """Max deviation of two component lists after removing one additive
    constant per component."""
    ix, iy = basepoint
    diffs = (ca - cb for ca, cb in zip(a, b))
    return max([0.0] + [float(np.abs(d - d[iy, ix]).max()) for d in diffs])


def _twin(src: HeightMap, signature, basepoint, tol, res=None, jac=None):
    """Twin of ``src``: its maximal twin when ``signature`` is euclidean,
    the minimal graph it is the twin of when split.  ``res`` and ``jac``
    are the residual and Jacobian data of ``src`` when the caller has
    them.  Returns the pair and the residual of the built side, which the
    involution reads."""
    tol = resolve_tol(tol, src.domain)
    dom = src.domain
    comps, grads, metric, jac = _integrate_twin(src, signature, basepoint, tol, res, jac)
    checks = _diagnostics(HeightMap(dom, comps), grads, metric, jac)
    # the returned map carries the twin-relation gradients, which define
    # the twin exactly; re-differencing the integrated values would stack
    # one-sided stencils twice near the boundary
    out = HeightMap(dom, comps, grads)
    minimal = signature == "euclidean"
    other = "split" if minimal else "euclidean"
    back_res = _residual(out, other)
    back = _integrate_twin(out, other, basepoint, tol, back_res)[0]
    diag = TwinDiagnostics(*checks, _anchored_difference(src.components, back, basepoint))
    f, g = (src, out) if minimal else (out, src)
    return TwinPair(f, g, diag), back_res


def twin_forward(
    f: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinPair:
    """Build the twin maximal graph of the minimal graph ``f``."""
    return _twin(f, "euclidean", basepoint, tol)[0]


def twin_backward(
    g: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinPair:
    """Recover the minimal graph whose twin is the maximal graph ``g``."""
    return _twin(g, "split", basepoint, tol)[0]


def verify_twin(
    f: HeightMap, g: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinDiagnostics:
    """Every diagnostic of the minimal side ``f`` and its twin ``g``, from raw node values.

    The maximal side is integrated back first, so a side that is not
    spacelike fails before anything divides by its area element."""
    f = HeightMap(f.domain, f.components)
    g = HeightMap(g.domain, g.components)
    if f.domain != g.domain or f.n != g.n:
        raise ValidationError(
            f"twin sides differ: {f.n} component(s) on {f.domain} "
            f"and {g.n} on {g.domain}"
        )
    tol = resolve_tol(tol, g.domain)
    back, _, metric_g, jac_g = _integrate_twin(g, "split", basepoint, tol)
    metric_f = first_fundamental_form(f, "euclidean")
    grads = [_twin_gradient(f, metric_f, k) for k in range(f.n)]
    checks = _diagnostics(g, grads, metric_f, jacobian_data(f), (metric_g, jac_g))
    return TwinDiagnostics(*checks, _anchored_difference(f.components, back, basepoint))
