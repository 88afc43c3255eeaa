"""Residual evaluators for the minimal and maximal surface systems, and their verdict.

These are the correctness oracles every other module calls: the
quasilinear second-order forms, one field formula over the private builder
``_report``, which ``read_surface`` reads against the tolerance 50 h^2
into a ``SurfaceReading``; and, from its E/w, F/w, G/w, the divergence-zero
form and the two closedness identities.  Those are the closedness of the
twin gradients and of the lift's forms, which only the reading judges.

A report aggregates interior nodes only (one-sided second derivatives
are noisier): it takes its max and l2 once, when built, and keeps no field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotClosed, NotMinimal, NotSpacelike, ValidationError
from .fields import (
    HeightMap,
    MetricData,
    ScalarField,
    closedness_residual_field,
    diff_x,
    diff_y,
    first_fundamental_form,
    integrate_exact_form,
    interior_max,
)


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


def _second_derivatives(h: HeightMap, k: int):
    """(f_xx, f_xy, f_yy) of component k, differentiating the gradient
    fields so analytic first derivatives are honored when present."""
    dom = h.domain
    a, b = h.gradients[k]
    return diff_x(a, dom.dx), diff_y(a, dom.dy), diff_y(b, dom.dy)


class ResidualReport:
    """The max and l2 of residual fields over the interior nodes of ``mask``
    (all of them without one), read in the report's own normalization:
    scaled with a ``scale``, each field divided in place, raw without.  The
    aggregates are taken once, at construction, and the report keeps no array."""

    def __init__(self, op, signature, fields, scale, domain, mask=None):
        m = np.zeros(domain.shape, dtype=bool)
        m[1:-1, 1:-1] = True if mask is None else mask[1:-1, 1:-1]
        if not m.any():
            raise ValidationError("no interior nodes left to aggregate")
        vals = [(f if scale is None else np.divide(f, scale, out=f))[m] for f in fields]
        self.op, self.signature, self.domain = op, signature, domain
        self.normalization = "raw" if scale is None else "scaled"
        self._max_abs = max(float(np.abs(v).max()) for v in vals)
        with np.errstate(over="ignore"):  # past the float range it reads inf
            self._l2 = float(np.sqrt(sum(np.mean(np.square(v)) for v in vals) / len(vals)))

    def max_abs(self, normalization=None):
        """The largest interior |field|; ``normalization`` is None or the report's own."""
        if normalization not in (None, self.normalization):
            has = "no" if self.normalization == "raw" else "a"
            raise ValidationError(f"{self.op} has {has} scale; read it {self.normalization}")
        return self._max_abs

    def l2(self):
        return self._l2

    def to_report(self):
        dom = self.domain
        return {
            "op": self.op,
            "signature": self.signature,
            "max_abs": self._max_abs,
            "l2": self._l2,
            "normalization": self.normalization,
            "excluded_boundary": True,
            "grid": {"nx": dom.nx, "ny": dom.ny, "dx": dom.dx, "dy": dom.dy},
        }


def _report(h: HeightMap, signature: str) -> tuple[list, np.ndarray, MetricData]:
    """The residual fields of ``h`` in ``signature``, their scale and the
    metric they were read from.  The fields are the quasilinear form per
    component; a report leaves out nodes outside the metric's mask (only
    split data has any).  The scale is |E + G| * max(1, |second
    derivatives|) nodewise, with |E + G| >= 1e-12 so split data near the
    light cone cannot scale a residual up to inf; the second derivatives go
    one component at a time into one running max."""
    metric = first_fundamental_form(h.gradients, signature)
    fields = []
    m = np.ones(h.domain.shape)
    for k in range(h.n):
        second = _second_derivatives(h, k)
        fields.append(_quasilinear(metric, *second))
        for d in second:  # read; its magnitude is taken in place
            np.maximum(m, np.abs(d, out=d), out=m)
        del second, d  # before the next component's are taken
    s = np.add(metric.E, metric.G)
    np.maximum(np.abs(s, out=s), 1e-12, out=s)
    return fields, np.multiply(s, m, out=s), metric


def _scaled_max(fields, scale) -> float:
    """max |field / scale| off the boundary over ``fields``, each divided in place."""
    return max(interior_max(np.divide(r, scale, out=r)) for r in fields)


def _quasilinear(metric: MetricData, hxx, hxy, hyy) -> np.ndarray:
    """G h_xx - 2 F h_xy + E h_yy of one component."""
    t = np.empty_like(metric.E)
    r = metric.G * hxx
    np.multiply(2.0, metric.F, out=t)
    r -= np.multiply(t, hxy, out=t)
    r += np.multiply(metric.E, hyy, out=t)
    return r


def _residual(op: str, h: HeightMap, signature: str) -> ResidualReport:
    """The report ``op`` of ``h``, aggregated on the mask of its metric."""
    fields, scale, metric = _report(h, signature)
    return ResidualReport(op, signature, fields, scale, h.domain, metric.mask)


def minimal_residual(f: HeightMap) -> ResidualReport:
    """G f_xx - 2 F f_xy + E f_yy per component."""
    return _residual("minimal_residual", f, "euclidean")


def maximal_residual(g: HeightMap) -> ResidualReport:
    """Hatted quasilinear form; non-spacelike nodes are masked out of the
    aggregates instead of raising, unless no interior node is left."""
    return _residual("maximal_residual", g, "split")


def _fields(op: str, reading: SurfaceReading):
    """The fields of ``op`` of ``reading``, one at a time: the closedness
    identities |d/dx(G/w) - d/dy(F/w)| and |d/dx(F/w) - d/dy(E/w)|, or the
    divergence form d/dx((G/w) a_k - (F/w) b_k) + d/dy((E/w) b_k - (F/w) a_k)."""
    dom, (Ew, Fw, Gw) = reading.h.domain, reading.over_area
    if op == "closedness_identities":
        yield closedness_residual_field(Fw, Gw, dom)
        yield closedness_residual_field(Ew, Fw, dom)
    elif op == "divergence_residual":
        for a, b in reading.h.gradients:
            yield diff_x(Gw * a - Fw * b, dom.dx) + diff_y(Ew * b - Fw * a, dom.dy)
    else:
        raise ValidationError(f"unknown form {op!r}")


def _form_report(op: str, f: HeightMap) -> ResidualReport:
    """The report ``op`` of a map, read at tol 0, which no spacing overflows."""
    read = read_surface(f, "euclidean", 0.0)
    return ResidualReport(op, read.signature, list(_fields(op, read)), read.scale, f.domain)


def divergence_residual(f: HeightMap) -> ResidualReport:
    """The divergence form of a minimal graph."""
    return _form_report("divergence_residual", f)


def closedness_identities(f: HeightMap) -> ResidualReport:
    """The closedness identities of a minimal graph."""
    return _form_report("closedness_identities", f)


@dataclass(eq=False)
class SurfaceReading:
    """What the Gauss map, the divergence and closedness forms, the twin, the
    lift and the chart read of the minimal (euclidean) or maximal (split)
    residual of a spacelike map ``h`` (``read_surface``): its scaled max
    ``worst`` against the resolved ``tol``, its nodewise ``scale``, (E/w,
    F/w, G/w) and omega; never the residual's fields or E, F, G."""

    h: HeightMap
    signature: str
    tol: float
    worst: float
    scale: np.ndarray
    over_area: tuple
    omega: np.ndarray
    _potentials: dict = field(default_factory=dict, repr=False)
    _maxima: dict = field(default_factory=dict, repr=False)

    def require(self):
        """NOT_MINIMAL when the scaled residual exceeds ``tol``."""
        if self.worst > self.tol:
            kind = "minimal" if self.signature == "euclidean" else "maximal"
            raise NotMinimal(f"scaled {kind} residual {self.worst:.3e} > tol {self.tol:.3e}")

    def require_closed(self, worst: float):
        """NOT_CLOSED when ``worst``, the scaled closedness of forms it builds, exceeds ``tol``."""
        if worst > self.tol:
            raise NotClosed(f"scaled closedness residual {worst:.3e} > tol {self.tol:.3e}")

    def scaled_max(self, op: str) -> float:
        """max |field / scale| off the boundary over the fields of ``op``, taken
        once, a field at a time: the closedness identities or the divergence form."""
        if op not in self._maxima:
            self._maxima[op] = _scaled_max(_fields(op, self), self.scale)
        return self._maxima[op]

    def potentials(self, basepoint=(0, 0)):
        """M, N of (E/w, F/w) and (F/w, G/w), vanishing at ``basepoint``, after
        the basepoint's check, ``require`` and the closedness of both forms;
        integrated once per basepoint, so the lift and the chart share them."""
        key = self.h.domain.node(basepoint)
        self.require()
        if key not in self._potentials:
            Ew, Fw, Gw = (ScalarField(self.h.domain, c) for c in self.over_area)
            self.require_closed(self.scaled_max("closedness_identities"))
            M, N = integrate_exact_form(Ew, Fw, key), integrate_exact_form(Fw, Gw, key)
            self._potentials[key] = M, N
        return self._potentials[key]


def read_surface(h, signature: str = "euclidean", tol: float | None = None) -> SurfaceReading:
    """The reading of the map ``h``; NOT_SPACELIKE where it is not spacelike.
    The residual's fields die once its scaled max is read, and E, F, G once
    the over-area fields are taken.  A reading ``h`` in
    ``signature`` is returned as it is; ``tol`` must then be None or its own."""
    if isinstance(h, SurfaceReading):
        if h.signature != signature:
            raise ValidationError(f"expected a {signature} reading, got a {h.signature} one")
        if tol is not None and tol != h.tol:
            raise ValidationError(f"tolerance {tol!r} differs from the reading's {h.tol!r}")
        return h
    if signature not in ("euclidean", "split"):
        raise ValidationError(f"unknown signature {signature!r}")
    tol = resolve_tol(tol, h.domain)
    fields, scale, metric = _report(h, signature)
    if not metric.mask.all():
        raise NotSpacelike("input not spacelike", nodes=metric.invalid_nodes)
    worst = _scaled_max(fields, scale)
    del fields
    return SurfaceReading(h, signature, tol, worst, scale, metric.over_area, metric.omega)
