"""twinsurf benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload verify|chart|solve|cli \\
        --seed N --seconds S --trace 0|1

It imports twinsurf from ``src/`` of the checkout, makes its inputs from the
seed, measures closed-loop items for about S seconds (whole cycles, ending
nearest to S, at least one cycle), checks every item's outputs, and prints
two JSON lines: a full report (environment, every metric with its unit,
failures by code, report digests), then the result line
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
BENCHMARK.json lists.  ``failed`` counts the known failures too;
``correct`` is false when any item fails in a way not recorded in
``workloads.KNOWN_FAILURES``.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs an untraced phase and then a traced phase of S/2 seconds each: the
per-module metrics come from the traced phase, and the ratio of the two
phases' median item times is the tracing overhead.  Spans are written to
``.perfbench/trace-<workload>-<seed>.json``.

Every process of the benchmark pins OMP, OpenBLAS and MKL to one thread,
as ``twinsurf.cli.run`` does, so library and CLI paths share one BLAS
configuration.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

SETUP_RUNS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
}
# the subset the result line carries; the others are in the report line
# (fail_frac is 0 on three workloads, item_s_tail is +inf on cli)
RESULT_END_TO_END = ("setup_s", "items_per_s", "item_s_p50", "peak_rss_mb")

PER_LAYER = {
    "catalog.self_s": "s",
    "catalog.make_entry.calls": "count",
    "fields.self_s": "s",
    "fields.first_fundamental_form.calls": "count",
    "fields.jacobian_data.calls": "count",
    "fields.integrate_exact_form.calls": "count",
    "fields.stencil.calls": "count",
    "systems.self_s": "s",
    "systems.minimal_residual.calls": "count",
    "systems.maximal_residual.calls": "count",
    "twin.self_s": "s",
    "twin.twin_forward.calls": "count",
    "twin.twin_backward.calls": "count",
    "twin.integrate_scaled.calls": "count",
    "slag.self_s": "s",
    "slag.sl_lift.calls": "count",
    "conformal.self_s": "s",
    "conformal.build_chart.self_s": "s",
    "conformal.resample_to_chart.calls": "count",
    "conformal.resample_to_chart.self_s": "s",
    "conformal.null_curve.self_s": "s",
    "conformal.weierstrass_max_residual": "1",
    "gauss.self_s": "s",
    "gauss.gauss_map.calls": "count",
    "gauss.planarity_score.self_s": "s",
    "gauss.planarity_pairs": "count",
    "solver.self_s": "s",
    "solver.outer_iterations": "count",
    "solver.s_per_outer": "s",
    "solver.metric_evals": "count",
    "solver.max_err": "1",
    "gfield.read_s": "s",
    "gfield.write_s": "s",
    "gfield.bytes_read": "B",
    "gfield.bytes_written": "B",
    "gfield.read_mb_s": "MB/s",
    "gfield.write_mb_s": "MB/s",
    "reports.dumps.self_s": "s",
    "cli.proc_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
    "cli.exit.3": "count",
    "trace.overhead": "ratio",
}
# the subset the result line carries: every count and value, but a time or
# rate only where all of chart, solve and cli use its layer; an unused layer
# reads exactly 0 s on every run.  The report line carries all of them.
RESULT_PER_LAYER = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit not in ("s", "MB/s") or name in ("fields.self_s", "systems.self_s")
)


class Phase:
    """Closed-loop items in seeded order, whole cycles, for about ``seconds``."""

    def __init__(self, wl, rng, seconds, tracer=None):
        from spans import layer_values

        self.outcomes, self.layers, self.spans, self.cycle_of = [], [], [], []
        seen = {}
        cycles, start = 0, time.perf_counter()
        while True:
            order = list(wl.kinds)
            rng.shuffle(order)
            for kind in order:
                if tracer is not None:
                    tracer.reset()
                out = wl.run(kind, tracer is not None)
                # identical inputs must give identical report bytes
                if out.ok and seen.setdefault(kind, out.digest) != out.digest:
                    out.ok, out.code = False, "NONDETERMINISTIC"
                self.outcomes.append(out)
                self.cycle_of.append(cycles)
                if tracer is not None:
                    spans, counts = out.trace or (tracer.spans, tracer.counts)
                    self.spans.append(spans)
                    self.layers.append({**layer_values(spans, counts), **out.values})
            cycles += 1
            self.seconds = time.perf_counter() - start
            if self.seconds + 0.5 * self.seconds / cycles > seconds:
                break
        self.cycles = cycles

    def times(self):
        """Item wall times; a failed item counts as +inf."""
        return [o.seconds if o.ok else math.inf for o in self.outcomes]


def tail(times):
    """Value at the highest percentile that leaves TAIL_BEYOND samples above."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1:
        return {"value": None, "percentile": None, "samples": len(ordered)}
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
    }


def setup_sample(workload, workdir):
    """Fresh interpreter to the end of the warm-up pass, seen from here."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup", workload, workdir]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up sample for {workload} failed")
    return seconds


def environment(grids):
    import numpy
    import scipy
    import sympy

    caches = {}
    try:
        out = subprocess.run(
            ["lscpu", "-B", "-C=NAME,ONE-SIZE,ALL-SIZE"],
            capture_output=True, text=True, timeout=30,
        ).stdout
        for line in out.splitlines()[1:]:
            name, one, total = line.split()
            caches[name] = {"one": int(one), "all": int(total)}
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    l2 = caches.get("L2", {}).get("one")
    llc = caches[max(caches)]["all"] if caches else None  # highest level: L3 > L2 > L1d
    arrays = {str(n): 8 * n * n for n in grids}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "grids": grids,
        "l2_per_core_bytes": l2,
        "llc_bytes": llc,
        "array_bytes_computed": arrays,
        "array_fits_l2_computed": {n: l2 is not None and b <= l2 for n, b in arrays.items()},
        "array_fits_llc_computed": {n: llc is not None and b <= llc for n, b in arrays.items()},
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


# per-layer figures computed as a ratio of two per-cycle sums, with a scale
RATIOS = {
    "gfield.read_mb_s": ("gfield.bytes_read", "gfield.read_s", 1e-6),
    "gfield.write_mb_s": ("gfield.bytes_written", "gfield.write_s", 1e-6),
    "solver.s_per_outer": ("solver.wall_s", "solver.outer_iterations", 1.0),
}
# residuals reported by the items themselves: the median over items
VALUES = ("conformal.weierstrass_max_residual", "solver.max_err")


def per_layer(untraced, traced):
    """Per-layer figures of the traced phase.

    Each cycle runs every item kind once, so a figure is taken per item
    over one cycle (its sum over the cycle's items divided by their number,
    or a ratio of sums) and reported as the median over cycles.  Exit codes
    are counted per cycle.
    """
    cycles = {}
    for c, out, layer in zip(traced.cycle_of, traced.outcomes, traced.layers):
        cycles.setdefault(c, ([], []))
        cycles[c][0].append(out)
        cycles[c][1].append(layer)

    def one_cycle(name, outs, layers):
        if name.startswith("cli.exit."):
            return sum(o.exit == int(name.rsplit(".", 1)[1]) for o in outs)
        if name in RATIOS:
            num, den, scale = RATIOS[name]
            total = sum(v.get(den, 0) for v in layers)
            return scale * sum(v.get(num, 0) for v in layers) / total if total else 0.0
        return sum(v.get(name, 0) for v in layers) / len(layers)

    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            out[name] = statistics.median(traced.times()) / statistics.median(untraced.times())
        elif name in VALUES:
            values = [v[name] for v in traced.layers if name in v]
            out[name] = statistics.median(values) if values else 0.0
        else:
            out[name] = statistics.median(one_cycle(name, *c) for c in cycles.values())
    return out


def run_benchmark(workload, seed, seconds, trace, small=False, setup_runs=SETUP_RUNS):
    """Run one workload; returns (report, result) dictionaries."""
    import workloads
    from spans import Tracer

    rng = random.Random(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        variants = workloads.draw_variants(workload, rng)
        wl = workloads.WORKLOADS[workload](variants, small, workdir)
        input_gen_s = time.perf_counter() - t0
        setup = [] if trace else [setup_sample(workload, workdir) for _ in range(setup_runs)]
        if workload != "cli":  # CLI items start fresh processes; nothing to warm here
            workloads.warm_up(workload, workdir)
        untraced = Phase(wl, rng, seconds / 2 if trace else seconds)
        traced = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = Phase(wl, rng, seconds / 2, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [untraced] + ([traced] if traced else [])
    outcomes = [o for p in phases for o in p.outcomes]
    times = untraced.times()
    unexpected = [o for o in outcomes if not o.ok and not o.known]
    failures = {}
    for o in untraced.outcomes:
        if not o.ok:
            failures[o.code] = failures.get(o.code, 0) + 1
    tail_row = tail(times)
    passed = sum(o.ok for o in untraced.outcomes)
    e2e = {
        "setup_s": statistics.median(setup) if setup else None,
        "items_per_s": passed / untraced.seconds,
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail_row["value"],
        "fail_frac": (len(times) - passed) / len(times),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "variants": variants,
        "environment": environment(wl.grids),
        "input_gen_s": input_gen_s,
        "setup_samples_s": setup,
        "phases": [
            {"traced": p is traced, "seconds": p.seconds, "cycles": p.cycles, "items": len(p.outcomes)}
            for p in phases
        ],
        "end_to_end": {k: {"value": _finite(v), "unit": END_TO_END[k]} for k, v in e2e.items()},
        "item_s_tail_percentile": tail_row["percentile"],
        "item_s_tail_samples": tail_row["samples"],
        "failures_by_code": failures,
        "exit_codes": _exit_counts(untraced.outcomes),
        "known_failures": sum(o.known for o in outcomes),
        "unexpected_failures": [{"kind": o.kind, "code": o.code} for o in unexpected],
        "item_s_median_by_kind": _by_kind(untraced.outcomes),
        "report_sha256": {o.kind: o.digest for o in untraced.outcomes if o.digest},
    }
    if trace:
        layers = per_layer(untraced, traced)
        report["per_layer"] = {
            k: {"value": _finite(v), "unit": PER_LAYER[k]} for k, v in layers.items()
        }
        with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), "w") as fh:
            json.dump(
                {
                    "span_columns": ["name", "start", "end", "parent"],
                    "items": [
                        {"kind": o.kind, "spans": spans}
                        for o, spans in zip(traced.outcomes, traced.spans)
                    ],
                },
                fh,
            )
        metrics = {k: report["per_layer"][k] for k in RESULT_PER_LAYER}
    else:
        metrics = {k: report["end_to_end"][k] for k in RESULT_END_TO_END}
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
    }
    return report, result


def _finite(v):
    return v if v is None or math.isfinite(v) else sys.float_info.max


def _exit_counts(outcomes):
    counts = {}
    for o in outcomes:
        if o.exit is not None:
            counts[str(o.exit)] = counts.get(str(o.exit), 0) + 1
    return counts


def _by_kind(outcomes):
    kinds = {}
    for o in outcomes:
        kinds.setdefault(o.kind, []).append(o.seconds if o.ok else math.inf)
    return {k: _finite(statistics.median(v)) for k, v in sorted(kinds.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["verify", "chart", "solve", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twinsurf", "__init__.py")):
        print(f"perfbench: no twinsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
