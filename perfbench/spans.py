"""Spans and counts recorded around calls into twinsurf's modules.

The benchmark wraps every public function of the measured modules in
every twinsurf namespace that binds it, so calls made inside the library
are seen too.  Spans stay in memory as ``[name, start, end, parent]``
rows (parent is a row index or -1) and are written out when the run ends.
Nothing here touches the program's own code; uninstalling restores the
original bindings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

MODULES = (
    "catalog",
    "fields",
    "systems",
    "twin",
    "slag",
    "gauss",
    "conformal",
    "solver",
    "gfield",
    "reports",
    "cli",
)

STENCILS = ("diff_x", "diff_y", "diff2_x", "diff2_y", "diff_xy")

# file-size counters: span name -> counter, taken from the path argument
_FILE_BYTES = {
    "gfield.read_gfield": "gfield.bytes_read",
    "gfield.write_gfield": "gfield.bytes_written",
}


class Tracer:
    """Records a span per call of every wrapped function, nested by call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self):
        """Drop recorded spans and counts; call between items."""
        self.spans, self.counts = [], {}

    def _wrap(self, name, fn):
        byte_counter = _FILE_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = self.clock()
                self._stack.pop()
                if byte_counter and os.path.exists(args[0]):
                    self.count(byte_counter, os.path.getsize(args[0]))

        return traced

    def install(self):
        """Wrap the public functions of MODULES wherever twinsurf binds them."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"twinsurf.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "twinsurf" and not modname.startswith("twinsurf."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
                    self._patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in self._patched:
            ns[attr] = obj
        self._patched = []


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_values(spans, counts):
    """One item's additive layer figures: self times, call counts, span
    durations and byte counts."""
    selfs = self_times(spans)
    names = [row[0] for row in spans]
    v = {}

    def calls(name):
        return sum(1 for n in names if n == name)

    def self_of(match):
        return sum(t for n, t in zip(names, selfs) if match(n))

    def duration_of(name):
        return sum(row[2] - row[1] for row in spans if row[0] == name)

    for mod in MODULES:
        v[f"{mod}.self_s"] = self_of(lambda n, p=mod + ".": n.startswith(p))
    for name in (
        "catalog.make_entry",
        "fields.first_fundamental_form",
        "fields.jacobian_data",
        "fields.integrate_exact_form",
        "systems.minimal_residual",
        "systems.maximal_residual",
        "twin.twin_forward",
        "twin.twin_backward",
        "twin.integrate_scaled",
        "slag.sl_lift",
        "conformal.resample_to_chart",
        "gauss.gauss_map",
    ):
        v[f"{name}.calls"] = calls(name)
    v["fields.stencil.calls"] = sum(calls(f"fields.{s}") for s in STENCILS)
    for name in (
        "conformal.build_chart",
        "conformal.resample_to_chart",
        "conformal.null_curve",
        "gauss.planarity_score",
        "reports.dumps",
    ):
        v[f"{name}.self_s"] = self_of(lambda n, name=name: n == name)

    solver_rows = {
        i for i, n in enumerate(names) if n in ("solver.solve_minimal", "solver.solve_maximal")
    }

    def under_solver(i):
        while i >= 0:
            if i in solver_rows:
                return True
            i = spans[i][3]
        return False

    v["solver.metric_evals"] = sum(
        1
        for i, n in enumerate(names)
        if n == "fields.first_fundamental_form" and under_solver(spans[i][3])
    )
    v["solver.wall_s"] = sum(spans[i][2] - spans[i][1] for i in solver_rows)

    v["gfield.read_s"] = duration_of("gfield.read_gfield")
    v["gfield.write_s"] = duration_of("gfield.write_gfield")
    v["gfield.bytes_read"] = counts.get("gfield.bytes_read", 0)
    v["gfield.bytes_written"] = counts.get("gfield.bytes_written", 0)
    return v
