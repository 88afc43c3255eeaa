import numpy as np
import pytest

from twinsurf.errors import NotClosed, NotSpacelike, ValidationError
from twinsurf.fields import (
    GridDomain,
    HeightMap,
    ScalarField,
    closedness_residual_field,
    diff_x,
    diff_y,
    first_fundamental_form,
)
from twinsurf.slag import _sl_terms, sl_residual
from twinsurf.systems import (
    SurfaceReading,
    _fields,
    _quasilinear,
    _report,
    _second_derivatives,
    closedness_identities,
    default_tol,
    divergence_residual,
    maximal_residual,
    minimal_residual,
    read_surface,
)

from conftest import random_heightmap, same_bits, surface


def test_affine_graph_is_exactly_minimal(square_domain):
    X, Y = square_domain.meshgrid()
    f = HeightMap(square_domain, [0.3 * X - 0.2 * Y + 1.0, 0.1 * X])
    assert minimal_residual(f).max_abs("scaled") < 1e-13
    assert divergence_residual(f).max_abs("scaled") < 1e-13
    assert closedness_identities(f).max_abs("scaled") < 1e-13


def test_affine_spacelike_graph_is_exactly_maximal(square_domain):
    X, Y = square_domain.meshgrid()
    g = HeightMap(square_domain, [0.3 * X - 0.2 * Y])
    assert maximal_residual(g).max_abs("scaled") < 1e-13


@pytest.mark.parametrize("name", ["catenoid", "helicoid", "scherk", "holomorphic"])
def test_catalog_surfaces_satisfy_minimal_system(name):
    f = surface(name, 65, 65)
    tol = 50 * f.domain.h**2
    assert minimal_residual(f).max_abs("scaled") <= tol
    assert divergence_residual(f).max_abs("scaled") <= tol
    assert closedness_identities(f).max_abs("scaled") <= tol


def test_non_minimal_graph_is_flagged(square_domain):
    X, _ = square_domain.meshgrid()
    f = HeightMap(square_domain, [X**3])
    assert minimal_residual(f).max_abs("scaled") > 0.1


def test_residual_second_order_on_catenoid():
    errs = [
        minimal_residual(surface("catenoid", nx, ny)).max_abs("scaled")
        for nx, ny in ((65, 33), (129, 65))
    ]
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_report_schema(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    rep = minimal_residual(f).to_report()
    assert rep["excluded_boundary"] is True
    assert rep["normalization"] == "scaled"
    assert rep["grid"]["nx"] == square_domain.nx
    assert set(rep) >= {"op", "signature", "max_abs", "l2"}


def test_reports_hold_no_array():
    # a report is its numbers: the fields, their scale and mask die with its builder
    f = surface("catenoid", 17, 17)
    reports = [minimal_residual(f), maximal_residual(f), divergence_residual(f)]
    reports += [closedness_identities(f), sl_residual(ScalarField(f.domain, f.components[0]), 0.3)]
    for rep in reports:
        assert not any(isinstance(v, np.ndarray) for v in vars(rep).values()), rep.op
        assert sorted(vars(rep)) == ["_l2", "_max_abs", "domain", "normalization", "op", "signature"]


def test_a_maximal_residual_with_no_spacelike_interior_node_raises():
    # |grad g| = 2 everywhere: the report refuses to be built, not later read
    dom = GridDomain.from_bounds(-0.5, -0.5, 0.5, 0.5, 17, 17)
    X, _ = dom.meshgrid()
    with pytest.raises(ValidationError, match="no interior nodes left to aggregate"):
        maximal_residual(HeightMap(dom, [2.0 * X]))


def test_maximal_residual_masks_non_spacelike_nodes():
    # spacelike only on part of the domain: masked nodes must not poison the max
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
    X, Y = dom.meshgrid()
    g = HeightMap(dom, [0.8 * X * X])  # |g_x| > 1 where |x| > 0.625
    res = maximal_residual(g)
    assert np.isfinite(res.max_abs("scaled"))


def test_unknown_normalization_rejected(square_domain):
    f = HeightMap(square_domain, [np.zeros(square_domain.shape)])
    with pytest.raises(ValidationError):
        minimal_residual(f).max_abs("percent")


# ---------------------------------------------------------------- bitwise oracles
# the expressions the in-place kernels replaced


def _ref_residual_scale(metric, seconds):
    m = np.ones(metric.E.shape)
    for fxx, fxy, fyy in seconds:
        m = np.maximum(m, np.abs(fxx))
        m = np.maximum(m, np.abs(fxy))
        m = np.maximum(m, np.abs(fyy))
    return np.maximum(np.abs(metric.E + metric.G), 1e-12) * m


def _ref_quasilinear(metric, seconds):
    return [metric.G * hxx - 2.0 * metric.F * hxy + metric.E * hyy for hxx, hxy, hyy in seconds]


def _bit_maps():
    rng = np.random.default_rng(5)
    yield surface("catenoid", 33, 17)
    yield surface("holomorphic", 17, 33)
    yield random_heightmap(rng, GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17), n=3)
    dom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 17, 17)
    X, Y = dom.meshgrid()
    yield HeightMap(dom, [0.8 * X * X, -0.0 * Y])  # split data not spacelike everywhere; -0.0


def _gathered(fields, scale, mask):
    # the fields, over a scale when there is one, on the interior nodes of the mask
    m = np.zeros(fields[0].shape, dtype=bool)
    m[1:-1, 1:-1] = True
    if mask is not None:
        m &= mask
    return [(f if scale is None else f / scale)[m] for f in fields]


def _ref_max_abs(fields, scale, mask):
    return max(float(np.abs(v).max()) for v in _gathered(fields, scale, mask))


def _ref_l2(fields, scale, mask):
    vals = _gathered(fields, scale, mask)
    with np.errstate(over="ignore"):
        return float(np.sqrt(sum(np.mean(np.square(v)) for v in vals) / len(vals)))


def _built(f):
    # each scaled report of f with what its builder hands it: the fields,
    # their scale and the metric's mask, none for the forms
    for report, signature in ((minimal_residual, "euclidean"), (maximal_residual, "split")):
        fields, scale, metric = _report(f, signature)
        yield report(f), fields, scale, metric.mask
    read = read_surface(f, "euclidean", 0.0)
    fields = list(_fields("divergence_residual", read))
    yield divergence_residual(f), fields, read.scale, None


def test_max_abs_is_the_gathered_max_and_the_readings_verdict_bit_for_bit():
    # one gathered path for every report, its mask keeping every node, some
    # or none given (the forms); a reading's verdict, each field divided in
    # place, is the max of the report of its signature
    built = []
    for f in _bit_maps():
        built += _built(f)
        for signature, residual in (("euclidean", minimal_residual), ("split", maximal_residual)):
            try:
                worst = read_surface(f, signature).worst
            except NotSpacelike:
                continue
            assert same_bits(np.float64(worst), np.float64(residual(f).max_abs())), signature
    masks = [mask for *_, mask in built]
    assert any(m is None for m in masks)
    assert any(m is not None and m.all() for m in masks)
    assert any(m is not None and not m.all() for m in masks)
    for rep, fields, scale, mask in built:
        got = np.float64(rep.max_abs())
        assert same_bits(got, np.float64(_ref_max_abs(fields, scale, mask))), rep.op
        assert rep.to_report()["max_abs"] == rep.max_abs("scaled") == got
        with pytest.raises(ValidationError, match="has a scale"):
            rep.max_abs("raw")


def test_l2_is_the_gathered_root_mean_square_bit_for_bit():
    # every scaled report of every map, and a raw one
    for f in _bit_maps():
        for rep, fields, scale, mask in _built(f):
            got = np.float64(rep.l2())
            assert same_bits(got, np.float64(_ref_l2(fields, scale, mask))), rep.op
            assert rep.to_report()["l2"] == got
    f, theta = surface("catenoid", 33, 17), 0.7
    h = ScalarField(f.domain, f.components[0])
    trace, det = _sl_terms(h, "euclidean")
    ref = [np.cos(theta) * trace + np.sin(theta) * det]
    rep = sl_residual(h, theta)
    assert same_bits(np.float64(rep.l2()), np.float64(_ref_l2(ref, None, None)))
    assert same_bits(np.float64(rep.max_abs()), np.float64(_ref_max_abs(ref, None, None)))


@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_residual_kernels_match_their_reference_bit_for_bit(signature):
    for f in _bit_maps():
        metric = first_fundamental_form(f.gradients, signature)
        seconds = [_second_derivatives(f, k) for k in range(f.n)]
        got, ref = _quasilinear(metric, seconds), _ref_quasilinear(metric, seconds)
        assert len(got) == len(ref) and all(same_bits(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_report_scale_is_the_reference_scale_over_all_components(signature):
    # one running max of |second derivatives| over the components, scaled
    # once, equals the reference that scales their max
    reports = (
        [minimal_residual, divergence_residual, closedness_identities]
        if signature == "euclidean"
        else [maximal_residual]
    )
    for f in [*_bit_maps(), surface("holomorphic", 129, 129)]:
        metric = first_fundamental_form(f.gradients, signature)
        ref = _ref_residual_scale(metric, [_second_derivatives(f, k) for k in range(f.n)])
        fields, scale, _ = _report(f, signature)
        assert same_bits(scale, ref)
        if signature == "euclidean":  # the forms' scale is their reading's
            reading = read_surface(f, signature, 0.0)
            assert same_bits(reading.scale, ref)
        # and each report reads its fields in it
        for report in reports:
            if report in (minimal_residual, maximal_residual):
                ref_max = _ref_max_abs(fields, ref, metric.mask)
            else:
                ref_max = _ref_max_abs(list(_fields(report.__name__, reading)), ref, None)
            assert same_bits(np.float64(report(f).max_abs()), np.float64(ref_max))


def test_closedness_of_a_map_and_of_its_reading_is_its_metrics_bit_for_bit():
    # and so is the divergence form, which reads the same over-area fields
    for f in _bit_maps():
        dom = f.domain
        Ew, Fw, Gw = first_fundamental_form(f.gradients).over_area
        refs = {
            closedness_identities: [
                closedness_residual_field(Fw, Gw, dom), closedness_residual_field(Ew, Fw, dom)
            ],
            divergence_residual: [
                diff_x(Gw * a - Fw * b, dom.dx) + diff_y(Ew * b - Fw * a, dom.dy)
                for a, b in f.gradients
            ],
        }
        # the map's report reads its fields from a reading at tol 0
        reading, built = read_surface(f), read_surface(f, "euclidean", 0.0)
        assert same_bits(built.scale, reading.scale)
        for report, ref in refs.items():
            rep, op = report(f), report.__name__
            for fields in (list(_fields(op, built)), list(_fields(op, reading))):
                assert len(fields) == len(ref)
                assert all(same_bits(a, b) for a, b in zip(fields, ref))
            got = np.float64(rep.max_abs())
            assert same_bits(got, np.float64(_ref_max_abs(ref, reading.scale, None)))
            # the reading's maximum, which verify_surface reports, is the map's report's
            assert reading.scaled_max(op) == rep.max_abs("scaled")
    # the divergence form of a split reading is the hatted one, in its scale
    split = read_surface(surface("catenoid", 17, 17), "split")
    dom, (Ew, Fw, Gw) = split.h.domain, split.over_area
    ref = [
        diff_x(Gw * a - Fw * b, dom.dx) + diff_y(Ew * b - Fw * a, dom.dy)
        for a, b in split.h.gradients
    ]
    fields = list(_fields("divergence_residual", split))
    assert len(fields) == len(ref) and all(same_bits(a, b) for a, b in zip(fields, ref))
    worst = max(float(np.abs(r / split.scale)[1:-1, 1:-1].max()) for r in ref)
    assert split.scaled_max("divergence_residual") == worst


@pytest.mark.parametrize("signature", ["euclidean", "split"])
def test_divergence_of_a_reading_is_the_closedness_of_its_twin_gradients_bit_for_bit(signature):
    # the twin gradient of component k is s ((E/w) b_k - (F/w) a_k, (F/w) b_k
    # - (G/w) a_k), s = -1 from a euclidean reading and +1 from a split one;
    # the twin judges it closed by the reading's divergence form
    s = -1.0 if signature == "euclidean" else 1.0
    for name, nx, ny in (("catenoid", 33, 17), ("helicoid", 17, 17), ("holomorphic", 17, 33)):
        f = surface(name, nx, ny)
        reading = read_surface(f, signature)
        Ew, Fw, Gw = reading.over_area
        fields = list(_fields("divergence_residual", reading))
        assert len(fields) == f.n
        for field, (a, b) in zip(fields, f.gradients):
            P, Q = s * Ew * b - s * Fw * a, s * Fw * b - s * Gw * a
            assert same_bits(np.abs(field), closedness_residual_field(P, Q, f.domain))


def test_a_reading_judges_closedness_in_units_of_its_scale(square_domain):
    # (E/w, F/w) = (-y, x) is not closed: d/dx(F/w) - d/dy(E/w) = 2; the
    # reading refuses to integrate it beyond tol, reading it in units of its
    # scale: 2 / 4 = 0.5
    X, Y = square_domain.meshgrid()
    r = closedness_residual_field(-Y, X, square_domain)
    assert np.abs(r[1:-1, 1:-1] - 2.0).max() < 1e-12
    f = HeightMap(square_domain, [np.zeros(X.shape)])

    def reading(tol, scale):
        over_area = (-Y, X, np.zeros(X.shape))
        return SurfaceReading(f, "euclidean", tol, 0.0, np.full(X.shape, scale), over_area, X)

    with pytest.raises(NotClosed):
        reading(1e-6, 1.0).potentials()
    assert reading(0.6, 4.0).scaled_max("closedness_identities") == pytest.approx(0.5)
    reading(0.6, 4.0).potentials()
    with pytest.raises(NotClosed, match="scaled closedness residual 5.000e-01 > tol 4.000e-01"):
        reading(0.4, 4.0).potentials()
    with pytest.raises(ValidationError, match="unknown form"):
        reading(0.6, 4.0).scaled_max("minimal_residual")


def test_closedness_of_a_map_reads_no_tolerance():
    # 50 h^2 overflows at this spacing, but the reports compare with no tol
    dom = GridDomain.from_bounds(0.0, 0.0, 1e156, 1e156, 9, 9)
    X, Y = dom.meshgrid()
    with pytest.raises(ValidationError, match="overflows"):
        default_tol(dom)
    for report in (closedness_identities, divergence_residual):
        assert report(HeightMap(dom, [0.3 * X - 0.2 * Y])).max_abs() < 1e-13
