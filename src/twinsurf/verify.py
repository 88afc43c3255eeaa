"""The paper's identity suite on one minimal graph, as the check rows that
``twinsurf verify-all`` reports: the Gauss map's quadric residual, the
minimal system in three forms, the twin correspondence, the special
Lagrangian lift and the conformal chart.  The Gauss map takes the map;
the divergence form, the closedness identities, the twin, the lift and the
chart take one reading of the surface; its two closedness maxima are rows
and judge the twin's forms and the potentials', which the lift and the
chart share.
"""

from __future__ import annotations

from .conformal import build_chart
from .errors import AreaAngleViolation
from .fields import HeightMap
from .gauss import gauss_map, quadric_residual
from .slag import sl_lift
from .systems import read_surface
from .twin import twin_forward


def verify_surface(f: HeightMap, tol: float | None = None) -> list:
    """One ``(name, value, tol)`` row per check, passing when value <= tol.

    A failing minimal residual ends the rows, and so does a failing
    ``area_angle_violations`` (nodes with ||J|| >= 1) before the twin."""
    reading = read_surface(f, "euclidean", tol)
    tol = reading.tol
    checks = []

    def add(name, value, check_tol=tol):
        checks.append((name, float(value), float(check_tol)))

    add("quadric_residual", quadric_residual(gauss_map(f)), 1e-10)
    add("minimal_residual", reading.worst)
    if not reading.worst <= tol:
        return checks
    for op in ("closedness_identities", "divergence_residual"):
        add(op, reading.scaled_max(op))
    try:
        pair = twin_forward(reading)
    except AreaAngleViolation as exc:
        add("area_angle_violations", len(exc.nodes), 0)
        return checks
    for key, value in pair.diagnostics.to_report().items():  # c1..c4, involution
        add("twin_" + key.removesuffix("_residual"), value)
    add("twin_maximal_residual", pair.built_residual)
    del pair  # the lift and the chart read the reading alone
    for key, value in sl_lift(reading).to_report().items():
        add("lift_" + key.removesuffix("_residual"), value)
    chart = build_chart(reading)
    add("chart_jacobian_above_2", 2.0 - float(chart.J_psi.values.min()), 0.0)
    return checks
