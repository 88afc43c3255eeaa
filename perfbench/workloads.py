"""The benchmark's workloads: inputs made from the seed, items, and checks.

Every workload is a closed loop with one client: one item at a time, and
the next starts when the previous one ends.  An item is one call chain
into twinsurf followed by the checks on its outputs.

* ``verify`` -- the verify-all chain through the library's public
  functions at 513^2 on scherk, catenoid, helicoid and holomorphic.  It
  stresses fields, systems, twin, slag and catalog (lambdify runs again on
  every make_surface) on arrays larger than a core's L2.
* ``chart`` -- twin, chart, Weierstrass twin relation and planarity at
  513^2: conformal resampling and gauss.planarity_score dominate.  It
  shares twin_forward and build_chart with ``verify``.
* ``solve`` -- Dirichlet solves from analytic boundary data: many calls on
  small arrays, the red-black SOR inner loop and Picard.
* ``cli`` -- one fresh ``twinsurf`` process per item at 513^2: interpreter
  and import start-up, GFIELD reads and writes, JSON emission.

BENCHMARK.json lists chart, solve and cli, which together reach every
measured layer within the time the full set of runs may take; ``verify``
runs by hand (``--workload verify``) and in the smoke tests.

The seed fixes each surface's variant (rho on a grid in [0.8, 1.25]; for
the holomorphic surface phi = e^{i t} z^2, whose residuals do not depend on
t) and the order of items in each cycle.  Variants come from a fixed grid
so the planarity check can compare with values stored when the benchmark
was defined (``planarity_ref.json``, from ``make_refs.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

VARIANTS = 10
RHOS = tuple(round(0.8 + 0.05 * k, 2) for k in range(VARIANTS))
SMALL = 17  # grid of the warm-up pass and of the smoke tests
CHILD_TIMEOUT_S = 60

# Known failures of the program at the commit that defined the benchmark.
# A GFIELD file carries no analytic gradients, so the finite-difference
# residuals fall as O(h) while the default tol = 50 h^2 falls as O(h^2).
# At 513^2 these four Scherk commands fail for every rho in RHOS.  The scaled
# residuals do not change with rho but tol does (default_domain shrinks the
# Scherk square as 1/rho), so the form of the failure depends on rho:
#   twin forward   exit 2 NOT_MINIMAL (0.85-1.2), NOT_CLOSED (1.25),
#                  exit 0 with c3, c4 over tol (0.8)
#   twin backward  exit 2 NOT_CLOSED (0.8-0.95), NOT_MINIMAL (1.0-1.25)
#   twin verify    as twin backward
#   sl lift        exit 2 NOT_MINIMAL (0.85-1.25),
#                  exit 0 with hessian_det_residual over tol (0.8)
# Each counts as a failed item; a fix turns it into a pass.  Chaining the
# CLI's own twin output, and library verify_twin at >= 257^2, fail too; no
# workload runs those paths.
KNOWN_FAILURES = {
    ("scherk", "twin-forward"): {"NOT_MINIMAL", "NOT_CLOSED", "CHECK"},
    ("scherk", "twin-backward"): {"NOT_MINIMAL", "NOT_CLOSED"},
    ("scherk", "twin-verify"): {"NOT_MINIMAL", "NOT_CLOSED"},
    ("scherk", "sl-lift"): {"NOT_MINIMAL", "CHECK"},
}


def _known(surface, command, exit_code, code):
    form = "CHECK" if exit_code == 0 else code if exit_code == 2 else None
    return form in KNOWN_FAILURES.get((surface, command), ())


def variant_params(surface, k):
    if surface == "holomorphic":
        t = 2.0 * math.pi * k / VARIANTS
        return {"c0_2_re": math.cos(t), "c0_2_im": math.sin(t)}
    return {"rho": RHOS[k]}


def digest(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """One item: wall time of its call chain and the verdict of its checks."""

    kind: str
    seconds: float
    ok: bool
    code: str | None = None  # failure code: program error code, CHECK, ...
    exit: int | None = None  # CLI exit code
    known: bool = False  # the failure is a recorded known failure
    digest: str | None = None
    values: dict = field(default_factory=dict)  # per-item layer figures
    trace: tuple | None = None  # (spans, counts) recorded in a CLI child


def _checked(kind, seconds, report, failed_checks, values=None):
    code = "CHECK:" + ",".join(failed_checks) if failed_checks else None
    return Outcome(kind, seconds, not failed_checks, code, digest=digest(report),
                   values=values or {})


def _error(kind, seconds, exc):
    return Outcome(kind, seconds, False, getattr(exc, "code", type(exc).__name__))


def _interior_err(a, b):
    return float(np.abs((a - b)[1:-1, 1:-1]).max())


# ---------------------------------------------------------------- verify


class Verify:
    name = "verify"
    surfaces = ("scherk", "catenoid", "helicoid", "holomorphic")

    def __init__(self, variants, small, workdir):
        self.n = SMALL if small else 513
        self.params = {s: variant_params(s, variants[s]) for s in self.surfaces}
        self.kinds = [f"verify:{s}" for s in self.surfaces]
        self.grids = [self.n]

    def run(self, kind, traced=False):
        from twinsurf import (
            build_chart,
            closedness_identities,
            default_domain,
            divergence_residual,
            gauss_map,
            jacobian_data,
            make_surface,
            maximal_residual,
            minimal_residual,
            quadric_residual,
            sl_lift,
            twin_forward,
        )
        from twinsurf.errors import TwinsurfError
        from twinsurf.twin import default_tol

        surface = kind.split(":")[1]
        params = self.params[surface]
        t0 = time.perf_counter()
        try:
            dom = default_domain(surface, params, self.n, self.n)
            f = make_surface(surface, params, dom)
            tol = default_tol(dom)
            checks = [
                ("quadric_residual", quadric_residual(gauss_map(f)), 1e-10),
                ("minimal_residual", minimal_residual(f).max_abs("scaled"), tol),
                ("closedness_identities", closedness_identities(f).max_abs("scaled"), tol),
                ("divergence_residual", divergence_residual(f).max_abs("scaled"), tol),
                ("area_angle_violations", len(jacobian_data(f).violations), 0),
            ]
            pair = twin_forward(f, tol=tol)
            d = pair.diagnostics
            checks += [
                ("twin_c1", d.c1_residual, tol),
                ("twin_c2", d.c2_residual, tol),
                ("twin_c3", d.c3_residual, tol),
                ("twin_c4", d.c4_residual, tol),
                ("twin_involution", d.involution_residual, tol),
                ("twin_maximal_residual", maximal_residual(pair.g).max_abs("scaled"), tol),
            ]
            lift = sl_lift(f, tol=tol)
            checks += [
                ("lift_gradient_symmetry", lift.gradient_symmetry_residual, tol),
                ("lift_hessian_det", lift.hessian_det_residual, tol),
                ("lift_area_preservation", lift.area_preservation_residual, tol),
            ]
            chart = build_chart(f, tol=tol)
            checks.append(("chart_jacobian_above_2", 2.0 - float(chart.J_psi.values.min()), 0.0))
        except TwinsurfError as exc:
            return _error(kind, time.perf_counter() - t0, exc)
        seconds = time.perf_counter() - t0
        rows = [
            {"name": c, "value": float(v), "tol": float(t), "pass": bool(v <= t)}
            for c, v, t in checks
        ]
        report = {"surface": surface, "checks": rows, "pass": all(r["pass"] for r in rows)}
        return _checked(kind, seconds, report, [r["name"] for r in rows if not r["pass"]])


# ----------------------------------------------------------------- chart


def _planarity_refs():
    with open(os.path.join(HERE, "planarity_ref.json")) as fh:
        return json.load(fh)


def planarity_key(surface, k, n):
    return f"{surface}/{k}/{n}"


class Chart:
    name = "chart"
    surfaces = ("scherk", "catenoid", "holomorphic")
    WEIERSTRASS_MAX = 0.02  # acceptance criterion 08
    PLANARITY_ATOL = 1e-12

    def __init__(self, variants, small, workdir):
        from twinsurf import default_domain, make_surface

        self.n = SMALL if small else 513
        refs = _planarity_refs()
        self.inputs = {}
        for s in self.surfaces:
            params = variant_params(s, variants[s])
            f = make_surface(s, params, default_domain(s, params, self.n, self.n))
            self.inputs[s] = (f, refs[planarity_key(s, variants[s], self.n)])
        self.kinds = [f"chart:{s}" for s in self.surfaces]
        self.grids = [self.n]

    def run(self, kind, traced=False):
        from twinsurf import (
            build_chart,
            gauss_map,
            planarity_score,
            twin_forward,
            verify_weierstrass_twin,
        )
        from twinsurf.errors import TwinsurfError

        f, ref = self.inputs[kind.split(":")[1]]
        t0 = time.perf_counter()
        try:
            pair = twin_forward(f)
            chart = build_chart(f)
            w = verify_weierstrass_twin(pair, chart)
            score = planarity_score(gauss_map(f))
        except TwinsurfError as exc:
            return _error(kind, time.perf_counter() - t0, exc)
        seconds = time.perf_counter() - t0
        failed = []
        if not w["max_residual"] <= self.WEIERSTRASS_MAX:
            failed.append("weierstrass")
        if not abs(score - ref) <= self.PLANARITY_ATOL:
            failed.append("planarity")
        m = min(f.domain.nx * f.domain.ny, 4096)  # planarity_score's default max_nodes
        values = {
            "conformal.weierstrass_max_residual": w["max_residual"],
            "gauss.planarity_pairs": m * m,
        }
        report = {"weierstrass": w, "planarity_score": score}
        return _checked(kind, seconds, report, failed, values)


# ----------------------------------------------------------------- solve


class Solve:
    name = "solve"
    surfaces = ("catenoid", "helicoid", "scherk")
    # (system, surface, grid); acceptance criterion 10 bounds the error
    ITEMS = (
        ("minimal", "catenoid", 65),
        ("minimal", "helicoid", 65),
        ("minimal", "scherk", 129),
        ("maximal", "catenoid", 65),
        ("maximal", "scherk", 129),
    )
    MAX_ERR = {"minimal": 1e-3, "maximal": 2e-3}

    def __init__(self, variants, small, workdir):
        from twinsurf import default_domain, make_surface, twin_forward

        self.inputs = {}
        self.kinds = []
        for system, s, n in self.ITEMS:
            n = SMALL if small else n
            params = variant_params(s, variants[s])
            dom = default_domain(s, params, n, n)
            f = make_surface(s, params, dom)
            exact = f if system == "minimal" else twin_forward(f).g
            kind = f"solve:{system}:{s}"
            self.inputs[kind] = (system, dom, exact.components)
            self.kinds.append(kind)
        self.grids = sorted({dom.nx for _, dom, _ in self.inputs.values()})

    def run(self, kind, traced=False):
        from twinsurf import solve_maximal, solve_minimal
        from twinsurf.errors import TwinsurfError

        system, dom, exact = self.inputs[kind]
        fn = solve_minimal if system == "minimal" else solve_maximal
        boundary = [c.copy() for c in exact]
        t0 = time.perf_counter()
        try:
            result = fn(dom, boundary)
        except TwinsurfError as exc:
            return _error(kind, time.perf_counter() - t0, exc)
        seconds = time.perf_counter() - t0
        err = max(_interior_err(u, e) for u, e in zip(result.surface.components, exact))
        values = {"solver.outer_iterations": result.outer_iterations, "solver.max_err": err}
        report = {
            "outer_iterations": result.outer_iterations,
            "update_history": result.update_history,
            "residual_max_abs": result.residual_report.max_abs(),
            "max_err": err,
        }
        failed = [] if err <= self.MAX_ERR[system] else ["max_err"]
        return _checked(kind, seconds, report, failed, values)


# ------------------------------------------------------------------- cli


@dataclass
class _CliInput:
    params: dict
    f_path: str  # the minimal graph, written by the benchmark
    g_path: str  # its twin, from the library's twin_forward
    f_digest: str  # ``catalog sample`` must write these bytes again
    tol: float


class Cli:
    name = "cli"
    surfaces = ("scherk", "holomorphic")
    COMMANDS = (
        "sample",
        "twin-forward",
        "twin-backward",
        "twin-verify",
        "sl-lift",
        "residual",
        "verify-all",
    )

    def __init__(self, variants, small, workdir):
        from twinsurf import default_domain, make_surface, twin_forward, write_heightmap

        self.n = SMALL if small else 513
        self.workdir = workdir
        self.inputs = {}
        for s in self.surfaces:
            params = variant_params(s, variants[s])
            dom = default_domain(s, params, self.n, self.n)
            f = make_surface(s, params, dom)
            f_path = os.path.join(workdir, f"in_{s}_min.gf")
            g_path = os.path.join(workdir, f"in_{s}_max.gf")
            write_heightmap(f_path, f)
            write_heightmap(g_path, twin_forward(f).g)
            with open(f_path, "rb") as fh:
                f_digest = digest(fh.read())
            # the reports carry no tol of their own: 50 h^2 is twin.default_tol
            self.inputs[s] = _CliInput(params, f_path, g_path, f_digest, 50.0 * dom.h**2)
        self.kinds = [f"cli:{s}:{c}" for s in self.surfaces for c in self.COMMANDS]
        self.grids = [self.n]

    def argv(self, kind):
        _, s, command = kind.split(":")
        params, f_path, g_path = self.inputs[s].params, self.inputs[s].f_path, self.inputs[s].g_path
        out = os.path.join(self.workdir, "out.gf")
        rep = os.path.join(self.workdir, "report.json")
        grid = f"{self.n},{self.n}"
        p = [a for k, v in params.items() for a in ("--param", f"{k}={v!r}")]
        return {
            "sample": ["catalog", "sample", "--name", s, *p, "--grid", grid, "--out", out],
            "twin-forward": ["twin", "forward", "--in", f_path, "--out", out, "--report", rep],
            "twin-backward": ["twin", "backward", "--in", g_path, "--out", out, "--report", rep],
            "twin-verify": ["twin", "verify", "--in", f_path, "--twin", g_path, "--report", rep],
            "sl-lift": ["sl", "lift", "--in", f_path, "--out", out, "--report", rep],
            "residual": ["residual", "--system", "minimal", "--in", f_path, "--out", rep],
            "verify-all": ["verify-all", "--name", s, *p, "--grid", grid, "--out", rep],
        }[command], out, rep

    def run(self, kind, traced=False):
        _, s, command = kind.split(":")
        argv, out, rep = self.argv(kind)
        for path in (out, rep):
            if os.path.exists(path):
                os.remove(path)
        trace_path = os.path.join(self.workdir, "child_trace.json") if traced else None
        cmd = [sys.executable, CHILD, "cli"]
        if trace_path:
            cmd += ["--trace", trace_path]
        cmd += ["--", *argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Outcome(kind, math.inf, False, "TIMEOUT")
        seconds = time.perf_counter() - t0
        values = {"cli.proc_s": seconds}
        if trace_path and os.path.exists(trace_path):
            with open(trace_path) as fh:
                child = json.load(fh)
            os.remove(trace_path)
            values["cli.import_s"] = child["import_s"]
            trace = (child["spans"], child["counts"])
        else:
            trace = None
        if proc.returncode != 0:
            code = proc.stderr.decode(errors="replace").split(":", 1)[0].strip() or "EXIT"
            return Outcome(kind, seconds, False, code, proc.returncode,
                           _known(s, command, proc.returncode, code), values=values, trace=trace)
        with open(out if command == "sample" else rep, "rb") as fh:
            data = fh.read()
        if command == "sample":
            failed = [] if digest(data) == self.inputs[s].f_digest else ["sample_bytes"]
        elif command == "verify-all":
            failed = [] if json.loads(data)["pass"] is True else ["pass"]
        elif command == "residual":
            report = json.loads(data)
            nums = [report["max_abs"], report["l2"]]
            failed = [] if all(math.isfinite(v) for v in nums) else ["finite"]
        else:
            tol = self.inputs[s].tol
            failed = [k for k, v in json.loads(data).items() if not v <= tol]
        return Outcome(kind, seconds, not failed, "CHECK:" + ",".join(failed) if failed else None,
                       0, bool(failed) and _known(s, command, 0, "CHECK"), digest(data), values, trace)


WORKLOADS = {w.name: w for w in (Verify, Chart, Solve, Cli)}


def draw_variants(workload, rng):
    """Variant index per surface, drawn from the seeded ``random.Random``."""
    return {s: rng.randrange(VARIANTS) for s in WORKLOADS[workload].surfaces}


def warm_up(workload, workdir):
    """One untimed pass over each item kind on the small grid (variant 0).

    It fills lazy imports and caches.  For the CLI workload the commands
    run in this process through twinsurf.cli.run.  Its files go to a
    fresh directory under ``workdir``, apart from the timed inputs.
    """
    cls = WORKLOADS[workload]
    scratch = tempfile.mkdtemp(prefix="warm-", dir=workdir)
    try:
        wl = cls({s: 0 for s in cls.surfaces}, True, scratch)
        if cls is not Cli:
            for kind in wl.kinds:
                wl.run(kind)
            return
        import twinsurf.cli

        for kind in wl.kinds:
            twinsurf.cli.run(wl.argv(kind)[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
