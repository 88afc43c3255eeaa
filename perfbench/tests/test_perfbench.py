"""Tests of the benchmark itself: span arithmetic and a small-grid smoke run
of every workload.  Run from the repository root with
``python3 -m pytest perfbench/tests -q``."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import Tracer, layer_values, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],
        ["c", 2.0, 2.5, 1],  # grandchild: not subtracted from a
        ["d", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 5.0, 0], ["d", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_values_sum_self_time_per_module_and_count_solver_metric_evals():
    spans = [
        ["solver.solve_minimal", 0.0, 10.0, -1],
        ["fields.first_fundamental_form", 1.0, 2.0, 0],
        ["fields.diff_x", 1.2, 1.5, 1],
        ["systems.minimal_residual", 3.0, 5.0, 0],
        ["fields.first_fundamental_form", 3.5, 4.0, 3],
        ["fields.first_fundamental_form", 11.0, 12.0, -1],
    ]
    v = layer_values(spans, {})
    assert v["solver.self_s"] == pytest.approx(7.0)
    assert v["fields.self_s"] == pytest.approx(0.7 + 0.3 + 0.5 + 1.0)
    assert v["systems.self_s"] == pytest.approx(1.5)
    assert v["fields.first_fundamental_form.calls"] == 3
    assert v["fields.stencil.calls"] == 1
    assert v["solver.metric_evals"] == 2  # the third call is outside the solve


def test_tracer_sees_calls_inside_the_library_and_uninstalls():
    import twinsurf
    from twinsurf import systems

    original = systems.first_fundamental_form
    dom = twinsurf.default_domain("scherk", None, 9, 9)
    f = twinsurf.make_surface("scherk", None, dom)
    tracer = Tracer()
    tracer.install()
    try:
        assert systems.first_fundamental_form is not original
        twinsurf.minimal_residual(f)
    finally:
        tracer.uninstall()
    assert systems.first_fundamental_form is original
    names = [row[0] for row in tracer.spans]
    assert names[0] == "systems.minimal_residual"
    assert "fields.first_fundamental_form" in names
    assert all(row[3] == 0 for row in tracer.spans[1:])  # all called by minimal_residual


def test_tail_leaves_ten_samples_beyond():
    times = list(range(1, 41))
    row = run.tail(times)
    assert row["value"] == 30 and row["percentile"] == 75.0 and row["samples"] == 40
    assert run.tail(times[:10])["value"] is None


@pytest.mark.parametrize("workload", ["verify", "chart", "solve", "cli"])
@pytest.mark.parametrize("trace", [False, True])
def test_small_grid_run_emits_every_metric_with_its_unit(workload, trace):
    report, result = run.run_benchmark(workload, 7, 0.1, trace, small=True, setup_runs=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= len(report["item_s_median_by_kind"]) >= 1
    if workload != "cli":
        assert result["correct"] and result["failed"] == 0
    if trace:
        expected = {k: run.PER_LAYER[k] for k in run.RESULT_PER_LAYER}
        assert {k: m["unit"] for k, m in report["per_layer"].items()} == run.PER_LAYER
    else:
        expected = {k: run.END_TO_END[k] for k in run.RESULT_END_TO_END}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert {k: m["unit"] for k, m in report["end_to_end"].items()} == run.END_TO_END
    json.dumps(result, allow_nan=False)
