"""Closed-form surfaces and potentials with analytic derivatives: the
ground-truth corpus for the verification suite.

Each family evaluates its components, their exact gradients and, where a
closed form exists, its lift (M, N) in numpy; polynomial families
differentiate coefficient vectors.  The tests compare every value, gradient
and lift with a symbolic oracle.  Inverse hyperbolics are spelled as
logarithms (arcosh x = log(x + sqrt(x^2 - 1)), arsinh x =
log(x + sqrt(x^2 + 1))) for reproducible double-precision behavior.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DomainNotAdmissible, ValidationError
from .fields import GridDomain, HeightMap


def _acosh(t):
    return np.log(t + np.sqrt(t * t - 1))


def _asinh(t):
    return np.log(t + np.sqrt(t * t + 1))


@dataclass
class CatalogEntry:
    n: int
    admissible: callable  # (X, Y) -> bool array
    evaluate: callable  # (X, Y) -> (components, [(d/dx, d/dy), ...])
    lift: callable | None = None  # (X, Y) -> (M, N), when a closed form exists


def _everywhere(X, Y):
    return np.ones_like(X, bool)


def _match(pattern, key, name):
    hit = re.fullmatch(pattern, key)
    if hit is None:
        raise ValidationError(f"bad {name} param {key!r}")
    return hit


def _rho(params, family=None):
    """rho (default 1), finite and > 0; the only param of a rho ``family``."""
    if family:
        for key in params:
            _match("rho", key, family)
    rho = float(params.get("rho", 1.0))
    if not (np.isfinite(rho) and rho > 0):
        raise ValidationError(f"rho must be finite and > 0, got {rho!r}")
    return rho


def _radial(X, Y, k):
    """(s x, s y) with s = sqrt(1 + k / r^2): the catenoid lift for
    k = -rho^2, the helicoid lift for k = rho^2."""
    s = np.sqrt(1 + k / (X * X + Y * Y))
    return s * X, s * Y


def _plane(params):
    # f_k = a{k} + b{k} x + c{k} y, k = 1..n
    ks = [int(_match("[abc]([1-9][0-9]*)", key, "plane")[1]) for key in params]
    n = max(ks, default=1)
    coef = [[float(params.get(f"{c}{k}", 0.0)) for c in "abc"] for k in range(1, n + 1)]

    def evaluate(X, Y):
        one = np.ones_like(X)
        comps = [a + b * X + c * Y for a, b, c in coef]
        return comps, [(b * one, c * one) for _, b, c in coef]

    return CatalogEntry(n, _everywhere, evaluate)


def _catenoid(params):
    rho = _rho(params, "catenoid")

    def evaluate(X, Y):
        r2 = X * X + Y * Y
        r = np.sqrt(r2)
        d = r * np.sqrt(r2 - rho**2)
        return [rho * _acosh(r / rho)], [(rho * X / d, rho * Y / d)]

    return CatalogEntry(
        1, lambda X, Y: X**2 + Y**2 > rho**2, evaluate, lambda X, Y: _radial(X, Y, -(rho**2))
    )


def _helicoid(params):
    rho = _rho(params, "helicoid")

    def evaluate(X, Y):  # x > 0 branch only
        r2 = X * X + Y * Y
        return [rho * np.arctan(Y / X)], [(-rho * Y / r2, rho * X / r2)]

    return CatalogEntry(1, lambda X, Y: X > 0, evaluate, lambda X, Y: _radial(X, Y, rho**2))


def _scherk(params):
    rho = _rho(params, "scherk")
    lim = np.pi / 2 / rho

    def evaluate(X, Y):
        value = (np.log(np.cos(rho * X)) - np.log(np.cos(rho * Y))) / rho
        return [value], [(-np.tan(rho * X), np.tan(rho * Y))]

    def lift(X, Y):
        return (
            _asinh(np.tan(rho * X) * np.cos(rho * Y)) / rho,
            _asinh(np.tan(rho * Y) * np.cos(rho * X)) / rho,
        )

    return CatalogEntry(1, lambda X, Y: (np.abs(X) < lim) & (np.abs(Y) < lim), evaluate, lift)


def _lagrangian_catenoid(params):
    # the catenoid lift as a gradient graph: s (x, y), s = sqrt(1 - rho^2 / r^2)
    rho = _rho(params, "lagrangian_catenoid")

    def evaluate(X, Y):
        r2 = X * X + Y * Y
        s = np.sqrt(1 - rho**2 / r2)
        t = rho**2 / (r2 * r2 * s)  # ds/dx = t x, ds/dy = t y
        grads = [(s + t * X * X, t * X * Y), (t * X * Y, s + t * Y * Y)]
        return [s * X, s * Y], grads

    return CatalogEntry(2, lambda X, Y: X**2 + Y**2 > rho**2, evaluate)


def _holomorphic(params):
    """Polynomials phi_m(z); params c{m}_{j}_re / c{m}_{j}_im are the
    coefficients of z^j in phi_m (m, j 0-based)."""
    if not params:
        params = {"c0_2_re": 1.0}  # phi = z^2 by default
    hits = [_match("c([0-9]+)_([0-9]+)_(re|im)", key, "holomorphic") for key in params]
    ms, js = [int(h[1]) for h in hits], [int(h[2]) for h in hits]
    if set(ms) != set(range(len(set(ms)))):
        raise ValidationError("holomorphic components must be c0..c{k-1}")
    c = np.zeros((len(set(ms)), max(js) + 1), complex)
    vs = [float(v) * (1j if h[3] == "im" else 1) for h, v in zip(hits, params.values())]
    np.add.at(c, (ms, js), vs)
    dc = P.polyder(c, axis=1)

    def evaluate(X, Y):
        # Cauchy-Riemann: d/dx phi = phi', d/dy phi = i phi'
        Z = X + 1j * Y
        comps, grads = [], []
        for cm, dcm in zip(c, dc):
            phi, dphi = P.polyval(Z, cm), P.polyval(Z, dcm)
            # copies, so that no component keeps a complex array alive
            comps += [phi.real.copy(), phi.imag.copy()]
            du, dv = dphi.real.copy(), dphi.imag.copy()
            grads += [(du, -dv), (dv, du)]
        return comps, grads

    return CatalogEntry(2 * len(c), _everywhere, evaluate)


def _quadratic_gradient(params):
    # gradient graph of F = (a x^2 + 2 c x y + b y^2)/2
    for key in params:
        _match("[abc]", key, "quadratic_gradient")
    a, b, c = (float(params.get(k, v)) for k, v in (("a", 1.0), ("b", 1.0), ("c", 0.0)))

    def evaluate(X, Y):
        one = np.ones_like(X)
        return [a * X + c * Y, c * X + b * Y], [(a * one, c * one), (c * one, b * one)]

    return CatalogEntry(2, _everywhere, evaluate)


def _chamberland_reverse(params):
    # gradient graph of h = x y + f(x): components (y + f'(x), x), with
    # f = sum f{k} x^k (x^4 by default)
    terms = params or {"f4": 1.0}
    ks = [int(_match("f([0-9]+)", key, "chamberland_reverse")[1]) for key in terms]
    f = np.zeros(max(ks) + 1)
    np.add.at(f, ks, [float(v) for v in terms.values()])
    df, d2f = P.polyder(f), P.polyder(f, 2)

    def evaluate(X, Y):
        one = np.ones_like(X)
        grads = [(P.polyval(X, d2f), one), (one, np.zeros_like(X))]
        return [Y + P.polyval(X, df), X.copy()], grads

    return CatalogEntry(2, _everywhere, evaluate)


_FAMILIES = {
    "plane": _plane,
    "catenoid": _catenoid,
    "helicoid": _helicoid,
    "scherk": _scherk,
    "holomorphic": _holomorphic,
    "quadratic_gradient": _quadratic_gradient,
    "lagrangian_catenoid": _lagrangian_catenoid,
    "chamberland_reverse": _chamberland_reverse,
}

SURFACES = tuple(_FAMILIES)

MINIMAL_SURFACES = ("plane", "catenoid", "helicoid", "scherk", "holomorphic")


def make_entry(name: str, params: dict | None = None) -> CatalogEntry:
    if name not in _FAMILIES:
        raise ValidationError(f"unknown catalog surface {name!r}")
    return _FAMILIES[name](dict(params or {}))


def default_domain(name: str, params: dict | None, nx: int, ny: int) -> GridDomain:
    """A representative admissible rectangle for each surface family."""
    rho = _rho(dict(params or {}))
    bounds = {
        "plane": (-1.0, -1.0, 1.0, 1.0),
        "catenoid": (1.5 * rho, -0.75 * rho, 3.0 * rho, 0.75 * rho),
        "helicoid": (rho, rho, 2.0 * rho, 2.0 * rho),
        "scherk": (-0.6 / rho, -0.6 / rho, 0.6 / rho, 0.6 / rho),
        "holomorphic": (-0.3, -0.3, 0.3, 0.3),
        "quadratic_gradient": (-0.5, -0.5, 0.5, 0.5),
        "lagrangian_catenoid": (1.5 * rho, -0.75 * rho, 3.0 * rho, 0.75 * rho),
        "chamberland_reverse": (-0.5, -0.5, 0.5, 0.5),
    }
    if name not in bounds:
        raise ValidationError(f"unknown catalog surface {name!r}")
    return GridDomain.from_bounds(*bounds[name], nx, ny)


def make_surface(name: str, params: dict | None, domain: GridDomain) -> HeightMap:
    """Sample a catalog surface with analytic gradients attached."""
    entry = make_entry(name, params)
    X, Y = domain.meshgrid()
    ok = entry.admissible(X, Y)
    if not np.all(ok):
        raise DomainNotAdmissible(
            f"{name}: domain leaves the admissible region", nodes=np.argwhere(~ok)
        )
    comps, grads = entry.evaluate(X, Y)
    return HeightMap(domain, comps, grads)


def known_lift(name: str, params: dict | None = None):
    """Closed-form (M, N) evaluators for entries with a stated lift, else None."""
    lift = make_entry(name, params).lift
    if lift is None:
        return None
    return (lambda X, Y: lift(X, Y)[0], lambda X, Y: lift(X, Y)[1])
