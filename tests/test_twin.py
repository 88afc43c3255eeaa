import sys

import numpy as np
import pytest

from twinsurf import fields
from twinsurf.conformal import build_chart
from twinsurf.errors import (
    AreaAngleViolation,
    NotClosed,
    NotMinimal,
    NotSpacelike,
    ValidationError,
)
from twinsurf.fields import GridDomain, HeightMap, first_fundamental_form
from twinsurf.slag import sl_lift
from twinsurf.systems import default_tol, maximal_residual, minimal_residual, read_surface
from twinsurf.twin import TwinPair, twin_backward, twin_forward, verify_twin

from conftest import same_bits, surface


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
    a, b = pair.g.gradients[0]
    assert a[32, 32] == pytest.approx(0.0, abs=1e-12)
    assert b[32, 32] == pytest.approx(0.5, abs=1e-12)


def test_twin_of_affine_graph_is_affine():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    pair = twin_forward(HeightMap(dom, [0.3 * X - 0.1 * Y]))
    a, b = pair.g.gradients[0]
    assert np.ptp(a) < 1e-13
    assert np.ptp(b) < 1e-13
    d = pair.diagnostics
    assert max(d.c2_residual, d.c3_residual, d.c4_residual) < 1e-12
    assert d.involution_residual < 1e-12


def test_twin_output_is_spacelike():
    pair = twin_forward(surface("scherk", 65, 65))
    m = first_fundamental_form(pair.g.gradients, "split")
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


# ---------------------------------------------------------------- one reading


def _same_maps(a, b):
    return all(same_bits(x, y) for x, y in zip(a.components, b.components)) and all(
        same_bits(x, y) for pa, pb in zip(a.gradients, b.gradients) for x, y in zip(pa, pb)
    )


@pytest.mark.parametrize("name", ["catenoid", "holomorphic"])
def test_a_map_and_its_reading_build_the_same_bits(name):
    f = surface(name, 33, 33)
    g = twin_forward(f).g
    for build, h, signature in ((twin_forward, f, "euclidean"), (twin_backward, g, "split")):
        a, b = build(h), build(read_surface(h, signature))
        assert _same_maps(a.f, b.f) and _same_maps(a.g, b.g)
        assert (a.diagnostics, a.built_residual) == (b.diagnostics, b.built_residual)
    a, b = sl_lift(f), sl_lift(read_surface(f))
    assert a.to_report() == b.to_report()
    assert all(same_bits(getattr(a, k).values, getattr(b, k).values) for k in "MNh")
    a, b = build_chart(f), build_chart(read_surface(f))
    assert all(same_bits(getattr(a, k).values, getattr(b, k).values) for k in ("M", "N", "J_psi"))


def test_the_pair_carries_the_built_sides_residual():
    f = surface("catenoid", 33, 33)
    pair = twin_forward(f)
    assert pair.built_residual == maximal_residual(pair.g).max_abs("scaled")
    back = twin_backward(pair.g)
    assert back.built_residual == minimal_residual(back.f).max_abs("scaled")
    assert TwinPair(pair.f, pair.g, pair.diagnostics).built_residual is None


@pytest.mark.parametrize(
    "build, signature",
    [(twin_forward, "euclidean"), (twin_backward, "split"), (sl_lift, "euclidean"),
     (build_chart, "euclidean")],
)
def test_a_reading_takes_no_other_tolerance_or_signature(build, signature):
    f = surface("catenoid", 33, 33)
    g = twin_forward(f).g
    tol = default_tol(f.domain)
    h, other, other_signature = (f, g, "split") if signature == "euclidean" else (g, f, "euclidean")
    reading = read_surface(h, signature, tol)
    with pytest.raises(ValidationError, match="differs"):
        build(reading, (0, 0), 2 * tol)
    with pytest.raises(ValidationError, match=f"expected a {signature} reading"):
        build(read_surface(other, other_signature))
    build(reading, (0, 0), tol)  # its own tolerance is no conflict


def test_reading_checks_spacelike_then_minimal():
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, _ = dom.meshgrid()
    with pytest.raises(NotSpacelike):
        read_surface(HeightMap(dom, [0.8 * X * X]), "split")
    with pytest.raises(ValidationError, match="unknown signature"):
        read_surface(HeightMap(dom, [X]), "lorentz")
    reading = read_surface(HeightMap(dom, [X**3]))  # not minimal: read, then refused
    assert reading.worst > reading.tol
    with pytest.raises(NotMinimal):
        reading.potentials()


@pytest.fixture(scope="module")
def catenoid_pair():
    f = surface("catenoid", 33, 33)
    return f, twin_forward(f).g


@pytest.mark.parametrize("basepoint", [(0.5, 0), (1.0, 0), ("1", 0), (0,), 0, (33, 0)])
@pytest.mark.parametrize(
    "build",
    [
        lambda f, g, bp: twin_forward(f, bp),
        lambda f, g, bp: twin_backward(g, bp),
        lambda f, g, bp: sl_lift(f, bp),
        lambda f, g, bp: build_chart(f, bp),
        lambda f, g, bp: verify_twin(f, g, bp),
    ],
    ids=["twin_forward", "twin_backward", "sl_lift", "build_chart", "verify_twin"],
)
def test_a_bad_basepoint_is_a_validation_error(catenoid_pair, build, basepoint):
    with pytest.raises(ValidationError, match="basepoint"):
        build(*catenoid_pair, basepoint)


def test_a_float_basepoint_is_refused_before_the_potentials_cache():
    # (0.0, 0) hashes and compares equal to (0, 0): checked before the lookup
    reading = read_surface(surface("catenoid", 33, 33))
    reading.potentials((0, 0))
    with pytest.raises(ValidationError, match="not two node indices"):
        reading.potentials((0.0, 0))


def test_potentials_are_integrated_once_per_basepoint():
    reading = read_surface(surface("catenoid", 33, 33))
    M, N = reading.potentials((0, 0))
    assert reading.potentials([0, 0])[0] is M
    M2, _ = reading.potentials((3, 4))
    assert M2 is not M and M2.values[4, 3] == 0.0
