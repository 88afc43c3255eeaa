"""The grid kernels write only into arrays they allocated, and hold few
grid arrays at once."""

import tracemalloc

import numpy as np
import pytest

from twinsurf import (
    TwinPair,
    build_chart,
    gauss_map,
    minimal_residual,
    null_curve,
    planarity_score,
    resample_to_chart,
    sl_lift,
    solve_maximal,
    solve_minimal,
    twin_backward,
    twin_forward,
    verify_surface,
    verify_twin,
    verify_weierstrass_twin,
    write_heightmap,
)
from twinsurf.cli import run
from twinsurf.fields import HeightMap

from conftest import surface


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _read_only_map(h):
    _read_only(*h.components, *(a for pair in h.gradients for a in pair))
    return h


@pytest.mark.parametrize("name", ["holomorphic", "scherk"])
def test_kernels_write_only_into_arrays_they_allocated(name):
    # catalog holomorphic shares one array between two gradient slots, so a
    # kernel that wrote into its input would also corrupt the other slot
    f = _read_only_map(surface(name, 33, 33))
    minimal_residual(f)
    pair = twin_forward(f)
    g = _read_only_map(pair.g)
    twin_backward(g)
    verify_twin(f, g)
    sl_lift(f)
    chart = build_chart(f)
    _read_only(*(s.values for s in (chart.M, chart.N, chart.J_psi)))
    null_curve(f, chart)
    verify_weierstrass_twin(TwinPair(f, g, pair.diagnostics), chart)
    field = gauss_map(f)
    _read_only(field)
    planarity_score(field)
    verify_surface(f)


@pytest.mark.parametrize("layout", ["transposed", "row_block"])
def test_kernels_write_only_into_arrays_they_allocated_in_any_layout(layout):
    # components and gradients as transposed (F-contiguous) views, which the
    # stencils copy once, or as a row block of taller arrays, which they
    # read in place
    f = surface("scherk", 33, 33)
    place = {
        "transposed": lambda a: a.T.copy().T,
        "row_block": lambda a: np.pad(a, ((3, 3), (0, 0)))[3:-3],
    }[layout]
    comps = [place(c) for c in f.components]
    grads = [tuple(place(g) for g in pair) for pair in f.gradients]
    assert all(c.flags.c_contiguous == (layout == "row_block") for c in comps)
    c_map, f = f, _read_only_map(HeightMap(f.domain, comps, grads))
    raw = _read_only_map(HeightMap(f.domain, comps))
    assert minimal_residual(f).to_report() == minimal_residual(c_map).to_report()
    pair = twin_forward(f)
    twin_backward(_read_only_map(pair.g))
    sl_lift(raw)
    chart = build_chart(f)
    null_curve(f, chart)
    c_pair = twin_forward(c_map)
    assert verify_weierstrass_twin(pair, chart) == verify_weierstrass_twin(c_pair, build_chart(c_map))
    planarity_score(gauss_map(raw))
    verify_surface(f)


def _peak_units(fn, *args):
    """Traced peak of ``fn(*args)`` above its entry, in grid arrays of
    8 ny nx bytes (all inputs here are 257 x 257)."""
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * 257 * 257)


# measured peaks plus one grid array; the copying kernels these replaced
# read 30.5 (gauss_map), 38.5, 22.0 and 17.3, and before the twin, verify
# and lift chains held only what a later check reads, twin_forward read
# 26.4, twin_backward 26.4, verify_twin 35.4, verify_surface 40.4, sl_lift
# 20.2 and minimal_residual 14.1; verify_surface read 25.1 while it held
# the surface's Jacobian data through the twin's involution; before the
# null-curve kernels and the Gauss normalization went by row blocks,
# verify_weierstrass_twin read 20.0, null_curve 18.0 and gauss_map 14.5;
# verify_surface read 24.3 while its divergence row took f's metric again
_PEAK_BOUNDS = {
    "gauss_map": 11.3,
    "minimal_residual": 12.5,
    "twin_forward": 23.5,
    "twin_backward": 23.5,
    "verify_twin": 24.5,
    "sl_lift": 12.5,
    "verify_surface": 24.3,
    "verify_weierstrass_twin": 3.6,
    "build_chart": 16.5,
    "null_curve": 3.0,
    "resample_to_chart": 18.1,
}


def test_stage_peaks_stay_under_their_bounds():
    f = surface("holomorphic", 257, 257)  # n = 2
    pair, chart = twin_forward(f), build_chart(f)
    peaks = {
        "gauss_map": _peak_units(gauss_map, f),
        "minimal_residual": _peak_units(minimal_residual, f),
        "twin_forward": _peak_units(twin_forward, f),
        "twin_backward": _peak_units(twin_backward, pair.g),
        "verify_twin": _peak_units(verify_twin, f, pair.g),
        "sl_lift": _peak_units(sl_lift, f),
        "verify_surface": _peak_units(verify_surface, f),
        "verify_weierstrass_twin": _peak_units(verify_weierstrass_twin, pair, chart),
        "build_chart": _peak_units(build_chart, f),
        "null_curve": _peak_units(null_curve, f, chart),
        "resample_to_chart": _peak_units(resample_to_chart, chart, f),
    }
    assert all(peaks[k] <= _PEAK_BOUNDS[k] for k in peaks), peaks


# the solvers from the catenoid's edges and its twin's: measured peaks plus
# one grid array (47.9 and 47.7 while the FFT sine transform ran, each step
# held the previous metric through the trial's, and the initial E and G
# stayed alive to the end); the Anderson history alone is 20 interior arrays
_SOLVE_PEAK_BOUNDS = {"solve_minimal": 42.6, "solve_maximal": 42.7}


def test_solver_peaks_stay_under_their_bounds():
    f = surface("catenoid", 257, 257)
    g = twin_forward(f).g
    peaks = {
        "solve_minimal": _peak_units(solve_minimal, f.domain, f.components),
        "solve_maximal": _peak_units(solve_maximal, g.domain, g.components),
    }
    assert all(peaks[k] <= _SOLVE_PEAK_BOUNDS[k] for k in peaks), peaks


# the CLI's heaviest commands, on files: measured peaks plus one grid array
# (47.5 and 45.5 before their inputs stopped being copied and their
# finished results stopped being held; verify-all 30.2 while it held the
# surface's Jacobian data through the twin's involution)
_CLI_PEAK_BOUNDS = {"twin verify": 28.5, "verify-all": 30.5}


def test_cli_peaks_stay_under_their_bounds(tmp_path, capsys):
    f = surface("holomorphic", 257, 257)
    f_path, g_path = str(tmp_path / "f.gf"), str(tmp_path / "g.gf")
    write_heightmap(f_path, f)
    write_heightmap(g_path, twin_forward(f).g)
    peaks = {
        "twin verify": _peak_units(run, ["twin", "verify", "--in", f_path, "--twin", g_path]),
        "verify-all": _peak_units(run, ["verify-all", "--name", "holomorphic", "--grid", "257,257"]),
    }
    assert '"pass": true' in capsys.readouterr().out
    assert all(peaks[k] <= _CLI_PEAK_BOUNDS[k] for k in peaks), peaks
