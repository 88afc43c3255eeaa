import sys

import numpy as np
import pytest

from twinsurf import fields
from twinsurf.errors import AreaAngleViolation, NotClosed, NotSpacelike, ValidationError
from twinsurf.fields import GridDomain, HeightMap, first_fundamental_form
from twinsurf.twin import default_tol, twin_backward, twin_forward, verify_twin

from conftest import surface


def catenoid_through_2_0():
    # grid with a node exactly at (x, y) = (2, 0)
    dom = GridDomain.from_bounds(1.5, -0.5, 2.5, 0.5, 65, 65)
    X, Y = dom.meshgrid()
    r = np.hypot(X, Y)
    vals = np.arccosh(r)
    grads = [(X / (r * np.sqrt(r * r - 1)), Y / (r * np.sqrt(r * r - 1)))]
    return HeightMap(dom, [vals], grads)


def test_default_tol_scales_with_grid():
    dom = GridDomain.from_bounds(0.0, 0.0, 1.0, 1.0, 65, 65)
    assert default_tol(dom) == pytest.approx(50 * (1 / 64) ** 2)


@pytest.mark.parametrize("width", [1e155, 1e308])  # 50 h^2 overflows; h^2 overflows
def test_default_tol_rejects_overflowing_spacing(width):
    dom = GridDomain.from_bounds(0.0, 0.0, width, width, 11, 11)
    with pytest.raises(ValidationError, match="overflows"):
        default_tol(dom)


def test_catenoid_twin_gradient_at_known_node():
    # at (2, 0): alpha = 1/sqrt(3), beta = 0, E = 4/3, F = 0, omega = 2/sqrt(3)
    # so the twin gradient is (-E beta/w + F alpha/w, G alpha/w - F beta/w) = (0, 1/2)
    pair = twin_forward(catenoid_through_2_0())
    g = pair.g
    assert g.alpha(0)[32, 32] == pytest.approx(0.0, abs=1e-12)
    assert g.beta(0)[32, 32] == pytest.approx(0.5, abs=1e-12)


def test_twin_of_affine_graph_is_affine():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    pair = twin_forward(HeightMap(dom, [0.3 * X - 0.1 * Y]))
    assert np.ptp(pair.g.alpha(0)) < 1e-13
    assert np.ptp(pair.g.beta(0)) < 1e-13
    d = pair.diagnostics
    assert max(d.c2_residual, d.c3_residual, d.c4_residual) < 1e-12
    assert d.involution_residual < 1e-12


def test_twin_output_is_spacelike():
    pair = twin_forward(surface("scherk", 65, 65))
    m = first_fundamental_form(pair.g, "split")
    assert m.mask.all()


def test_backward_inverts_forward():
    pair = twin_forward(surface("catenoid", 65, 33))
    back = twin_backward(pair.g)
    err = np.abs(
        (back.f.components[0] - back.f.components[0][0, 0])
        - (pair.f.components[0] - pair.f.components[0][0, 0])
    ).max()
    assert err <= 5e-3


def test_verify_twin_recomputes_from_node_values():
    pair = twin_forward(surface("catenoid", 65, 33))
    d = verify_twin(pair.f, pair.g)
    # FD gradients only, so slightly noisier than pair.diagnostics
    tol = 2 * default_tol(pair.f.domain)
    assert d.c1_residual <= tol
    assert max(d.c2_residual, d.c3_residual, d.c4_residual) <= tol


@pytest.mark.parametrize(
    "build, amplitude",
    [(twin_forward, 1.0), (twin_backward, 0.3)],
    ids=["forward", "backward"],
)
def test_non_closed_input_rejected(build, amplitude):
    # both directions check closedness before the residual precondition,
    # so an input that fails both is reported as NOT_CLOSED either way
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(NotClosed):
        build(HeightMap(dom, [amplitude * X**3]))


def test_unit_area_angle_rejected():
    # f = (x, y): J_12 = 1, so Theta = 0 and the twin construction degenerates
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    with pytest.raises(AreaAngleViolation) as exc:
        twin_forward(HeightMap(dom, [X, Y]))
    assert len(exc.value.nodes) > 0


def test_backward_rejects_non_spacelike():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(NotSpacelike):
        twin_backward(HeightMap(dom, [2.0 * X]))


def test_backward_rejects_negative_definite_metric():
    # (2x, 2y): E = G = -3, F = 0, so E G - F^2 = 9 > 0 but the hatted
    # metric is negative definite, not spacelike
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    with pytest.raises(NotSpacelike):
        twin_backward(HeightMap(dom, [2.0 * X, 2.0 * Y]))


def test_verify_twin_rejects_mismatched_sides():
    coarse = twin_forward(surface("catenoid", 17, 17))
    fine = twin_forward(surface("catenoid", 33, 33))
    with pytest.raises(ValidationError):
        verify_twin(coarse.f, fine.g)
    two = HeightMap(coarse.g.domain, coarse.g.components * 2)
    with pytest.raises(ValidationError):
        verify_twin(coarse.f, two)


def test_verify_twin_checks_the_pair_before_taking_gradients(monkeypatch):
    # catalog maps carry analytic gradients, so verify_twin would take
    # finite-difference ones: 4n grid arrays before a mismatch exits
    coarse, fine = surface("holomorphic", 17, 17), surface("holomorphic", 33, 33)
    one = HeightMap(coarse.domain, coarse.components[:1], coarse.gradients[:1])
    calls, original = [], fields.diff_x
    monkeypatch.setattr(fields, "diff_x", lambda *a: calls.append(a) or original(*a))
    for f, g in [(coarse, fine), (coarse, one)]:
        with pytest.raises(ValidationError):
            verify_twin(f, g)
    assert calls == []


def test_holomorphic_twin_is_exact():
    # phi = z^2 has polynomial data, where trapezoid sums and central
    # differences are exact; every residual collapses to rounding noise
    d = twin_forward(surface("holomorphic", 33, 33)).diagnostics
    assert max(d.c1_residual, d.c2_residual, d.c3_residual, d.c4_residual) < 1e-12
    assert d.involution_residual < 1e-12


def _count_metric_calls(monkeypatch):
    """Count first_fundamental_form calls in every twinsurf module binding it."""
    calls, original = [], fields.first_fundamental_form

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        bound = getattr(mod, "first_fundamental_form", None)
        if name.startswith("twinsurf") and bound is original:
            monkeypatch.setattr(mod, "first_fundamental_form", counted)
    return calls


def test_twin_takes_each_metric_once(monkeypatch):
    f = surface("catenoid", 33, 17)
    pair = twin_forward(f)
    raw = HeightMap(f.domain, pair.g.components)
    calls = _count_metric_calls(monkeypatch)
    twin_forward(f)
    # source (via its residual), raw twin, and the involution's source
    assert len(calls) <= 3
    calls.clear()
    verify_twin(f, raw)
    assert len(calls) <= 3
