"""Residual evaluators for the minimal and maximal surface systems.

These are the correctness oracles every other module calls: the
quasilinear second-order forms, the divergence-zero form, and the two
closedness identities of the euclidean metric-over-area fields.  Each is
one field formula over the private builder ``_report``.

Boundary nodes are excluded from max/l2 aggregation (one-sided second
derivatives are noisier); the residual fields still cover the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import (
    GridDomain,
    HeightMap,
    MetricData,
    closedness_residual_field,
    diff_x,
    diff_y,
    first_fundamental_form,
)


def _second_derivatives(h: HeightMap, k: int):
    """(f_xx, f_xy, f_yy) of component k, differentiating the gradient
    fields so analytic first derivatives are honored when present."""
    dom = h.domain
    a, b = h.alpha(k), h.beta(k)
    return diff_x(a, dom.dx), diff_y(a, dom.dy), diff_y(b, dom.dy)


@dataclass
class ResidualReport:
    op: str
    signature: str
    fields: list  # raw residual per component
    scale: np.ndarray  # nodewise scaling divisor
    domain: GridDomain
    normalization: str = "scaled"
    mask: np.ndarray | None = None  # nodes included in aggregation (interior)
    metric: MetricData | None = None  # the first fundamental form it was read from

    def _aggregated(self, normalization):
        """The fields in ``normalization`` on the interior nodes of the mask."""
        m = np.zeros(self.domain.shape, dtype=bool)
        m[1:-1, 1:-1] = True
        if self.mask is not None:
            m &= self.mask
        if not m.any():
            raise ValidationError("no interior nodes left to aggregate")
        normalization = normalization or self.normalization
        if normalization == "raw":
            return [f[m] for f in self.fields]
        if normalization != "scaled":
            raise ValidationError(f"unknown normalization {normalization!r}")
        return [(f / self.scale)[m] for f in self.fields]

    def max_abs(self, normalization=None):
        return max(float(np.abs(v).max()) for v in self._aggregated(normalization))

    def l2(self, normalization=None):
        vals = self._aggregated(normalization)
        return float(np.sqrt(sum(np.mean(np.square(v)) for v in vals) / len(vals)))

    def to_report(self):
        dom = self.domain
        return {
            "op": self.op,
            "signature": self.signature,
            "max_abs": self.max_abs(),
            "l2": self.l2(),
            "normalization": self.normalization,
            "excluded_boundary": True,
            "grid": {"nx": dom.nx, "ny": dom.ny, "dx": dom.dx, "dy": dom.dy},
        }


def _residual_scale(metric: MetricData, seconds):
    """(E + G) * max(1, ||second derivatives||_inf) nodewise.

    E + G is clamped away from 0 so split-signature data near the light
    cone cannot blow the scaled residual up to inf.
    """
    m = np.ones(metric.domain.shape)
    for fxx, fxy, fyy in seconds:
        m = np.maximum(m, np.abs(fxx))
        m = np.maximum(m, np.abs(fxy))
        m = np.maximum(m, np.abs(fyy))
    return np.maximum(np.abs(metric.E + metric.G), 1e-12) * m


def _report(op: str, h: HeightMap, signature: str, fields_of) -> ResidualReport:
    """The report ``op`` of ``h``: ``fields_of(metric, seconds)`` gives the
    residual fields from the metric of ``signature`` and each component's
    second derivatives.  Nodes outside the metric's mask (only split data
    can have any) are left out of the aggregates instead of raising."""
    metric = first_fundamental_form(h, signature)
    seconds = [_second_derivatives(h, k) for k in range(h.n)]
    return ResidualReport(
        op,
        signature,
        fields_of(metric, seconds),
        _residual_scale(metric, seconds),
        h.domain,
        mask=metric.mask,
        metric=metric,
    )


def _quasilinear(metric: MetricData, seconds) -> list:
    """G h_xx - 2 F h_xy + E h_yy per component."""
    return [
        metric.G * hxx - 2.0 * metric.F * hxy + metric.E * hyy
        for hxx, hxy, hyy in seconds
    ]


def minimal_residual(f: HeightMap) -> ResidualReport:
    """G f_xx - 2 F f_xy + E f_yy per component."""
    return _report("minimal_residual", f, "euclidean", _quasilinear)


def maximal_residual(g: HeightMap) -> ResidualReport:
    """Hatted quasilinear form; non-spacelike nodes are masked out of the
    aggregates instead of raising."""
    return _report("maximal_residual", g, "split", _quasilinear)


def divergence_residual(f: HeightMap) -> ResidualReport:
    """d/dx((G a_k - F b_k)/w) + d/dy((E b_k - F a_k)/w)."""
    dom = f.domain

    def fields_of(metric, _seconds):
        E, F, G, w = metric.E, metric.F, metric.G, metric.omega
        return [
            diff_x((G * a - F * b) / w, dom.dx) + diff_y((E * b - F * a) / w, dom.dy)
            for a, b in f.gradients
        ]

    return _report("divergence_residual", f, "euclidean", fields_of)


def closedness_identities(f: HeightMap) -> ResidualReport:
    """|d/dx(G/w) - d/dy(F/w)| and |d/dx(F/w) - d/dy(E/w)|."""
    dom = f.domain

    def fields_of(metric, _seconds):
        Ew, Fw, Gw = metric.over_area
        return [closedness_residual_field(Fw, Gw, dom), closedness_residual_field(Ew, Fw, dom)]

    return _report("closedness_identities", f, "euclidean", fields_of)
