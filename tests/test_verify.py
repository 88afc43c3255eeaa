import ast
import json
import pathlib

import pytest

import twinsurf
from twinsurf.cli import run
from twinsurf.verify import verify_surface

from conftest import surface

SRC = pathlib.Path(twinsurf.__file__).parent


@pytest.mark.parametrize("name", ["plane", "catenoid", "helicoid", "scherk", "holomorphic"])
def test_verify_surface_rows_are_the_verify_all_rows(name, capsys):
    assert run(["verify-all", "--name", name, "--grid", "33,33"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = [(c["name"], c["value"], c["tol"]) for c in report["checks"]]
    assert verify_surface(surface(name, 33, 33)) == rows
    assert all(c["pass"] is (c["value"] <= c["tol"]) for c in report["checks"])


def test_verify_surface_stops_after_a_failing_minimal_residual():
    rows = verify_surface(surface("scherk", 33, 33), tol=1e-14)
    assert [r[0] for r in rows] == ["quadric_residual", "minimal_residual"]
    assert rows[1][1] > rows[1][2] == 1e-14


@pytest.mark.parametrize("name", ["catenoid", "helicoid", "scherk"])
def test_values_only_rows_converge_at_second_order(name):
    # a values-only copy takes finite-difference gradients, whose ends are
    # error-matched: every scaled row passes and falls by 2^1.8 or more
    # from 129^2 to 257^2 (holomorphic sits at the rounding floor)
    def rows(n):
        f = surface(name, n, n)
        return verify_surface(twinsurf.HeightMap(f.domain, f.components))

    coarse, fine = rows(129), rows(257)
    assert [r[0] for r in coarse] == [r[0] for r in fine]
    scaled = [(c, f) for c, f in zip(coarse, fine) if f[2] == fine[1][2]]
    assert len(scaled) == 12 and all(r[1] <= r[2] for r in coarse + fine)
    assert all(f[1] * 2**1.8 <= c[1] for c, f in scaled), scaled


@pytest.mark.parametrize("name", ["lagrangian_catenoid", "quadratic_gradient"])
def test_verify_surface_fails_where_the_twin_cannot_be_built(name):
    # ||J|| >= 1 somewhere: no twin, lift or chart rows, and a failing row
    # that counts the offending nodes
    rows = verify_surface(surface(name, 17, 17))
    assert len(rows) == 5
    check, value, tol = rows[-1]
    assert (check, tol) == ("area_angle_violations", 0.0)
    assert value == len(twinsurf.jacobian_data(surface(name, 17, 17)).violations) > 0


def _private_imports(path):
    """``module._name`` for every private name one module takes from a
    sibling, by ``from .module import _name`` or ``module._name``."""
    tree = ast.parse(path.read_text())
    siblings, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
        ):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_no_private_name_crosses_modules():
    found = {p.stem: _private_imports(p) for p in SRC.glob("*.py")}
    crossing = {stem: names for stem, names in found.items() if names}
    assert crossing == {}
