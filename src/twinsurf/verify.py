"""The paper's identity suite on one minimal graph, as the check rows that
``twinsurf verify-all`` reports: the Gauss map's quadric residual, the
minimal system in three forms, the twin correspondence, the special
Lagrangian lift and the conformal chart.  The twin, the lift and the chart
share the surface's residual, Jacobian data and lift potentials.
"""

from __future__ import annotations

from .conformal import _build_chart
from .fields import HeightMap, jacobian_data
from .gauss import gauss_map, quadric_residual
from .slag import _lift_potentials, _sl_lift
from .systems import closedness_identities, divergence_residual, minimal_residual
from .twin import _twin, read_residual, resolve_tol


def verify_surface(f: HeightMap, tol: float | None = None) -> list:
    """One ``(name, value, tol)`` row per check, passing when value <= tol.

    A failing minimal residual ends the rows, and so does a failing
    ``area_angle_violations`` (nodes with ||J|| >= 1) before the twin."""
    tol = resolve_tol(tol, f.domain)
    checks = []

    def add(name, value, check_tol=tol):
        checks.append((name, float(value), float(check_tol)))

    add("quadric_residual", quadric_residual(gauss_map(f)), 1e-10)
    res = minimal_residual(f)
    read = read_residual(res)  # scaled max, scale, over-area fields, omega
    add("minimal_residual", read[0])
    if not read[0] <= tol:
        return checks
    trace = res.metric.E + res.metric.G  # all the chart reads of E, F, G
    del res  # the twin and the lift hold its reading, not its fields or E, F, G
    add("closedness_identities", closedness_identities(f).max_abs("scaled"))
    add("divergence_residual", divergence_residual(f).max_abs("scaled"))
    jac = jacobian_data(f)
    if not jac.has_positive_area_angle:
        add("area_angle_violations", len(jac.violations), 0)
        return checks
    pair, back_worst = _twin(f, "euclidean", (0, 0), tol, read, jac)
    for key, value in pair.diagnostics.to_report().items():  # c1..c4, involution
        add("twin_" + key.removesuffix("_residual"), value)
    add("twin_maximal_residual", back_worst)
    del pair, jac  # the lift and the chart read neither
    M, N, scale = _lift_potentials(f, (0, 0), tol, read)
    lift = _sl_lift(M, N, scale, (0, 0), tol)
    for key, value in lift.to_report().items():
        add("lift_" + key.removesuffix("_residual"), value)
    chart = _build_chart(f, trace, read[3], M, N)
    add("chart_jacobian_above_2", 2.0 - float(chart.J_psi.values.min()), 0.0)
    return checks
