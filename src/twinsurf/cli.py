"""Command-line interface.

Exit codes: 0 success, 1 flag/validation error, 2 computation error (the
error code name is printed to stderr), 3 a verify-all check failed.  On
an error stderr carries that one line and no numpy warning.

All numeric JSON output uses 17 significant digits.  Reports and files
are byte-identical at any BLAS thread count: importing twinsurf before
numpy pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import catalog, conformal, gauss, reports, slag, solver, systems, twin, verify
from .errors import TwinsurfError, ValidationError
from .fields import GridDomain, ScalarField
from .gfield import read_gfield, read_heightmap, write_gfield, write_heightmap


def _parse_params(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValidationError(f"--param must be k=v, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError as exc:
            raise ValidationError(f"--param {k} needs a number, got {v!r}") from exc
    return out


def _parse_domain(text, grid):
    try:
        x0, y0, x1, y1 = (float(t) for t in text.replace("−", "-").split(","))
    except ValueError as exc:
        raise ValidationError(f"--domain must be x0,y0,x1,y1, got {text!r}") from exc
    nx, ny = grid
    return GridDomain.from_bounds(x0, y0, x1, y1, nx, ny)


def _parse_ints(text, usage):
    """Two comma-separated integers, as ``usage`` (e.g. "--grid nx,ny") names."""
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected {usage}, got {text!r}") from exc
    return a, b


def _out(args):
    if not args.out:
        raise ValidationError(f"{args.command} {args.action} needs --out")
    return args.out


def _catalog_input(args):
    """The --param dict and the grid domain a catalog command samples on."""
    params = _parse_params(args.param)
    grid = _parse_ints(args.grid, "--grid nx,ny")
    if args.domain:
        return params, _parse_domain(args.domain, grid)
    return params, catalog.default_domain(args.name, params, *grid)


def _emit(report, out_path):
    if out_path:
        reports.dump(report, out_path)
    else:
        sys.stdout.write(reports.dumps(report))


def _scalar_in(path) -> ScalarField:
    domain, comps = read_gfield(path)
    if len(comps) != 1:
        raise ValidationError(f"{path}: expected a single-component field")
    return ScalarField(domain, comps[0])


def _cmd_catalog(args):
    if args.action == "list":
        for name in catalog.SURFACES:
            print(name)
        return 0
    params, dom = _catalog_input(args)
    f = catalog.make_surface(args.name, params, dom)
    write_heightmap(_out(args), f)
    return 0


def _cmd_residual(args):
    f = read_heightmap(args.inp)
    fn = {
        "minimal": systems.minimal_residual,
        "maximal": systems.maximal_residual,
        "divergence": systems.divergence_residual,
        "closedness": systems.closedness_identities,
    }[args.system]
    _emit(fn(f).to_report(), args.out)
    return 0


def _cmd_twin(args):
    bp = _parse_ints(args.basepoint, "--basepoint ix,iy")
    if args.action == "forward":
        pair = twin.twin_forward(read_heightmap(args.inp), bp, tol=args.tol)
        if args.out:
            write_heightmap(args.out, pair.g)
    elif args.action == "backward":
        pair = twin.twin_backward(read_heightmap(args.inp), bp, tol=args.tol)
        if args.out:
            write_heightmap(args.out, pair.f)
    else:  # verify: recompute diagnostics from two saved sides
        if not args.twin:
            raise ValidationError("twin verify needs --twin")
        f, g = read_heightmap(args.inp), read_heightmap(args.twin)
        _emit(twin.verify_twin(f, g, bp, args.tol).to_report(), args.report)
        return 0
    _emit(pair.diagnostics.to_report(), args.report)
    return 0


def _cmd_sl(args):
    if args.action == "lift":
        bp = _parse_ints(args.basepoint, "--basepoint ix,iy")
        lift = slag.sl_lift(read_heightmap(args.inp), bp, tol=args.tol)
        if args.out:
            write_gfield(args.out, lift.h.domain, [lift.h.values])
        _emit(lift.to_report(), args.report)
        return 0
    if args.action == "rotate":
        params = slag.SLParams(args.lambda1, args.lambda2, args.epsilon)
        h = slag.graph_rotate(_scalar_in(args.inp), params, args.mode)
        write_gfield(_out(args), h.domain, [h.values])
        return 0
    if args.action == "residual":
        h = _scalar_in(args.inp)
        if args.signature == "euclidean":
            rep = slag.sl_residual(h, args.theta)
        else:
            rep = slag.split_sl_residual(h, args.theta)
        _emit(rep.to_report(), args.out)
        return 0
    # detect-angle
    theta, const = slag.detect_angle(_scalar_in(args.inp), args.signature)
    _emit({"theta": theta, "constancy_residual": const, "mode": args.signature}, args.out)
    return 0


def _cmd_gauss(args):
    jorgens = args.action == "jorgens"
    f = _scalar_in(args.inp) if jorgens else read_heightmap(args.inp)
    g = gauss.jorgens_gauss(f) if jorgens else gauss.gauss_map(f)
    if args.action in ("map", "jorgens"):  # planes Re z_1, Im z_1, Re z_2, ...
        write_gfield(_out(args), f.domain, np.moveaxis(g.view(float), -1, 0))
    elif args.action == "quadric":
        _emit({"quadric_residual": gauss.quadric_residual(g)}, args.out)
    elif args.action == "fit":
        i, j = _parse_ints(args.pair, "--pair i,j")
        fit = gauss.hyperplane_fit(g, i, j)
        _emit(
            {
                "i": fit.i,
                "j": fit.j,
                "lambda": fit.lam,
                "residual": fit.residual,
                "is_nonreal": fit.is_nonreal,
            },
            args.out,
        )
    else:  # planarity
        _emit({"planarity_score": gauss.planarity_score(g)}, args.out)
    return 0


def _cmd_chart(args):
    f = read_heightmap(args.inp)
    bp = _parse_ints(args.basepoint, "--basepoint ix,iy")
    reading = systems.read_surface(f, tol=args.tol)  # the chart's and the twin's
    chart = conformal.build_chart(reading, bp)
    pair = twin.twin_forward(reading, bp) if args.action == "weierstrass" else None
    del reading  # each action reads the map, the chart and the pair
    if args.action == "build":
        _emit(
            {
                "J_psi_min": float(chart.J_psi.values.min()),
                "J_psi_max": float(chart.J_psi.values.max()),
                "basepoint": list(bp),
            },
            args.out,
        )
        return 0
    if args.action == "resample":
        X = conformal.resample_to_chart(chart, f)
        write_heightmap(_out(args), X)
        return 0
    if args.action == "nullcurve":
        _emit({**conformal.null_curve(f, chart), "signature": "euclidean"}, args.out)
        return 0
    # weierstrass: compare the null curves of the twin pair
    _emit(conformal.verify_weierstrass_twin(pair, chart), args.out)
    return 0


def _cmd_solve(args):
    domain, comps = read_gfield(args.boundary)
    fn = solver.solve_minimal if args.system == "minimal" else solver.solve_maximal
    result = fn(domain, comps, args.max_outer)
    if args.out:
        write_heightmap(args.out, result.surface)
    _emit(
        {
            "outer_iterations": result.outer_iterations,
            "residual": result.residual_report.to_report(),
            "update_history": result.update_history,
        },
        args.report,
    )
    return 0


def _cmd_verify_all(args):
    params, dom = _catalog_input(args)
    tol = systems.resolve_tol(args.tol, dom)
    f = catalog.make_surface(args.name, params, dom)
    rows = verify.verify_surface(f, tol)
    checks = [{"name": n, "value": v, "tol": t, "pass": v <= t} for n, v, t in rows]
    report = {
        "surface": args.name,
        "grid": {"nx": dom.nx, "ny": dom.ny, "dx": dom.dx, "dy": dom.dy},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    _emit(report, args.out)
    return 0 if report["pass"] else 3


def _add_common(p, basepoint=False):
    p.add_argument("--tol", type=float, default=None)
    if basepoint:
        p.add_argument("--basepoint", default="0,0")


def build_parser():
    ap = argparse.ArgumentParser(prog="twinsurf")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list surfaces / sample one to GFIELD")
    p.add_argument("action", choices=["list", "sample"])
    p.add_argument("--name")
    p.add_argument("--param", action="append")
    p.add_argument("--domain")
    p.add_argument("--grid", default="129,129")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("residual", help="evaluate a system residual")
    p.add_argument(
        "--system",
        required=True,
        choices=["minimal", "maximal", "divergence", "closedness"],
    )
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_residual)

    p = sub.add_parser("twin", help="twin correspondence")
    p.add_argument("action", choices=["forward", "backward", "verify"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--twin", help="second side for 'verify'")
    p.add_argument("--out")
    p.add_argument("--report")
    _add_common(p, basepoint=True)
    p.set_defaults(fn=_cmd_twin)

    p = sub.add_parser("sl", help="special Lagrangian operations")
    p.add_argument("action", choices=["lift", "rotate", "residual", "detect-angle"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--lambda1", type=float, default=0.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--epsilon", type=int, default=1)
    p.add_argument("--mode", choices=["standard", "reverse"], default="standard")
    p.add_argument("--theta", type=float, default=np.pi / 2)
    p.add_argument("--signature", choices=["euclidean", "split"], default="euclidean")
    _add_common(p, basepoint=True)
    p.set_defaults(fn=_cmd_sl)

    p = sub.add_parser("gauss", help="generalized Gauss map")
    p.add_argument("action", choices=["map", "quadric", "fit", "planarity", "jorgens"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--pair", default="2,3", help="1-based i,j for 'fit'")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gauss)

    p = sub.add_parser("chart", help="conformal chart operations")
    p.add_argument("action", choices=["build", "resample", "nullcurve", "weierstrass"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out")
    _add_common(p, basepoint=True)
    p.set_defaults(fn=_cmd_chart)

    p = sub.add_parser("solve", help="Dirichlet solvers")
    p.add_argument("system", choices=["minimal", "maximal"])
    p.add_argument("--boundary", required=True, help="GFIELD; interior ignored")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--max-outer", type=int, default=solver.MAX_OUTER)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify-all", help="full invariant suite on a catalog surface")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append")
    p.add_argument("--domain")
    p.add_argument("--grid", default="129,129")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_all)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        with np.errstate(all="ignore"):  # stderr carries the error line alone
            return args.fn(args)
    except TwinsurfError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ValidationError) else 2
    except (OSError, MemoryError) as exc:  # a bad path; a --param that needs TiBs
        print(f"VALIDATION: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
