"""Twin correspondence between minimal graphs in R^{n+2} and maximal
graphs in R^{n+2}_n with the same positive area-angle.

For each height component h_k with (a_k, b_k) = (dh_k/dx, dh_k/dy) the
twin gradient on a euclidean source is

    (dg_k/dx, dg_k/dy) = (-(E/w) b_k + (F/w) a_k, (G/w) a_k - (F/w) b_k),

a closed 1-form exactly when the minimal surface system holds in
divergence form; it is integrated to g_k anchored at the basepoint.  The
backward direction is the same relation read with the hatted (split)
coefficients and the opposite sign, so one routine, parameterised by the
signature of its source, serves both directions and their involution,
from a side's ``systems.SurfaceReading``, whose divergence form judges the
twin gradients closed.  ``_integrate_twin`` integrates them a component at
a time, ``_integrability`` reads c1 off the raw values of one side and
``_correspondence`` c2..c4 off the metric and Jacobian data of both.
Construction, the involution and ``verify_twin`` share them; each holds a
residual's fields, E, F, G and finite-difference gradients only until read.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AreaAngleViolation, NotSpacelike, ValidationError
from .fields import (
    HeightMap, ScalarField, first_fundamental_form, integrate_exact_form, interior_max,
    jacobian_data,
)
# default_tol is read from here by perfbench's verify workload
from .systems import SurfaceReading, default_tol, read_surface  # noqa: F401


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
    built_residual: float | None = None  # the built side's scaled residual, from the involution


def _twin_gradient(h: HeightMap, over_area, signature, k: int):
    """Twin gradient of component k from the metric-over-area fields of
    ``h`` in ``signature``; the split (backward) relation is the euclidean
    one negated.  The sign multiplies each product, which keeps the
    rounding of both directions exact, signed zeros included."""
    Ew, Fw, Gw = over_area
    a, b = h.gradients[k]
    s = -1.0 if signature == "euclidean" else 1.0
    return (s * Ew * b - s * Fw * a, s * Fw * b - s * Gw * a)


def _integrate_twin(reading: SurfaceReading, jac, basepoint, grads=None):
    """The twin's node values of the map of ``reading``, one component at a
    time, after its checks: the basepoint, area-angle from its Jacobian data
    ``jac`` (which dies here unless the caller holds it), closedness of the
    twin gradients (the reading's divergence form), then the residual.  Each
    twin-relation gradient is appended to ``grads`` when a list is given."""
    src, dom = reading.h, reading.h.domain
    dom.node(basepoint)  # a usage error precedes every verdict
    if not jac.has_positive_area_angle:
        raise AreaAngleViolation("||J|| >= 1", nodes=jac.violations)
    del jac
    reading.require_closed(reading.scaled_max("divergence_residual"))
    comps = []
    for k in range(src.n):
        P, Q = _twin_gradient(src, reading.over_area, reading.signature, k)
        u = integrate_exact_form(ScalarField(dom, P), ScalarField(dom, Q), basepoint)
        comps.append(u.values)
        if grads is not None:
            grads.append((P, Q))
        del P, Q  # before the next component's are taken
    reading.require()
    return comps


def _integrability(raw: HeightMap, grads) -> float:
    """c1: the largest gap between the finite-difference gradients of the
    raw node values ``raw`` of one side (so the identities are checked
    honestly) and the twin-relation ``grads`` read from the other."""
    c1 = 0.0
    for (a, b), (P, Q) in zip(raw.gradients, grads):
        c1 = max(c1, interior_max(a - P), interior_max(b - Q))
    return c1


def _built_side(dom, comps, grads, signature):
    """c1 of a built twin side from its raw node values ``comps``, and what
    ``_correspondence`` reads of it in ``signature``; a side that is not
    spacelike fails."""
    raw = HeightMap(dom, comps)
    c1 = _integrability(raw, grads)
    metric = first_fundamental_form(raw.gradients, signature)
    if not metric.mask.all():
        raise NotSpacelike("twin output not spacelike", nodes=metric.invalid_nodes)
    jac = jacobian_data(raw)
    del raw  # its finite-difference gradients die before the over-area fields are taken
    return c1, (metric.over_area, metric.omega, jac)  # E, F, G die with the metric


def _correspondence(src_side, out_side, minimal: bool):
    """c2..c4 of a twin pair from (E/w, F/w, G/w), omega and the Jacobian
    data of its source and of its other side; ``minimal`` when the source is
    the minimal one."""
    f_side, g_side = (src_side, out_side) if minimal else (out_side, src_side)
    (over_f, omega_f, jac_f), (over_g, omega_g, jac_g) = f_side, g_side
    c2 = max([0.0] + [interior_max(J - jac_g.pairs[key]) for key, J in jac_f.pairs.items()])
    sin2 = 1.0 - np.minimum(jac_f.norm, 1.0) ** 2  # sin^2(arccos ||J||)
    c3 = interior_max(omega_f * omega_g - sin2)
    del sin2
    c4 = max(interior_max(a - b) for a, b in zip(over_f, over_g))
    return c2, c3, c4


def _anchored_difference(a: list, b: list, basepoint):
    """Max deviation of two component lists after removing one additive
    constant per component."""
    ix, iy = basepoint
    diffs = (ca - cb for ca, cb in zip(a, b))
    return max([0.0] + [float(np.abs(d - d[iy, ix]).max()) for d in diffs])


def _twin(src, signature, basepoint, tol) -> TwinPair:
    """Twin of ``src``, a map or its reading in ``signature``: its maximal
    twin when euclidean, the minimal graph it is the twin of when split."""
    reading = read_surface(src, signature, tol)
    src, tol = reading.h, reading.tol
    dom = src.domain
    minimal = signature == "euclidean"
    other = "split" if minimal else "euclidean"
    jac = jacobian_data(src)
    grads = []
    comps = _integrate_twin(reading, jac, basepoint, grads)
    src_side = (reading.over_area, reading.omega, jac)
    del reading, jac  # what the correspondence reads of src is in src_side
    c1, out_side = _built_side(dom, comps, grads, other)
    checks = (c1, *_correspondence(src_side, out_side, minimal))
    del src_side, out_side  # the involution reads only the built side
    # it carries the twin-relation gradients: read from its values alone, the
    # involution of a values-only catenoid converges at order 1.68, not 2.00, from
    # 129^2 to 257^2, and the catalog one's maximal residual reads 0.0080 tol, not 0.0029
    out = HeightMap(dom, comps, grads)
    back = read_surface(out, other, tol)
    comps = _integrate_twin(back, jacobian_data(out), basepoint)
    built = back.worst
    del back  # its fields die before the involution's difference is taken
    diag = TwinDiagnostics(*checks, _anchored_difference(src.components, comps, basepoint))
    f, g = (src, out) if minimal else (out, src)
    return TwinPair(f, g, diag, built)


def twin_forward(f: HeightMap | SurfaceReading, basepoint=(0, 0), tol=None) -> TwinPair:
    """Build the twin maximal graph of the minimal graph ``f``, or of the
    map of its euclidean reading."""
    return _twin(f, "euclidean", basepoint, tol)


def twin_backward(g: HeightMap | SurfaceReading, basepoint=(0, 0), tol=None) -> TwinPair:
    """Recover the minimal graph whose twin is the maximal graph ``g``, or
    the map of its split reading."""
    return _twin(g, "split", basepoint, tol)


def verify_twin(
    f: HeightMap, g: HeightMap, basepoint: tuple = (0, 0), tol: float | None = None
) -> TwinDiagnostics:
    """Every diagnostic of the minimal side ``f`` and its twin ``g``, from raw node values.

    The pair is checked before any gradient is taken.  The maximal side is
    integrated back first, so a side that is not spacelike fails before
    anything divides by its area element."""
    if f.domain != g.domain or f.n != g.n:
        raise ValidationError(
            f"twin sides differ: {f.n} component(s) on {f.domain} "
            f"and {g.n} on {g.domain}"
        )
    f, g = f.raw(), g.raw()
    read, jac = read_surface(g, "split", tol), jacobian_data(g)
    back = _integrate_twin(read, jac, basepoint)
    involution = _anchored_difference(f.components, back, basepoint)
    g_side = (read.over_area, read.omega, jac)
    del back, read, jac  # the scale of g is read
    metric = first_fundamental_form(f.gradients, "euclidean")
    f_side = (metric.over_area, metric.omega, jacobian_data(f))
    del metric
    c2, c3, c4 = _correspondence(f_side, g_side, True)
    del g_side  # c1 reads only the metric-over-area fields of f
    grads = (_twin_gradient(f, f_side[0], "euclidean", k) for k in range(f.n))
    return TwinDiagnostics(_integrability(g, grads), c2, c3, c4, involution)
