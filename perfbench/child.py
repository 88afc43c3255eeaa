"""Child processes of the benchmark.

``child.py cli [--trace FILE] -- ARGV...`` runs ``twinsurf.cli.run(ARGV)``
in a fresh interpreter and exits with its code.  With ``--trace`` it
installs the benchmark's span wrappers after the import and writes the
import time, spans and counts to FILE as JSON.

``child.py setup WORKLOAD WORKDIR`` is one set-up sample: it imports
twinsurf, runs the workload's warm-up pass (files go to WORKDIR), prints
``ready`` and exits.  The parent times it from process start to that line.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def _cli(argv):
    trace_path = None
    if argv[0] == "--trace":
        trace_path, argv = argv[1], argv[2:]
    if argv[0] == "--":
        argv = argv[1:]
    t0 = time.perf_counter()
    import twinsurf.cli

    import_s = time.perf_counter() - t0
    if trace_path is None:
        return twinsurf.cli.run(argv)

    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = twinsurf.cli.run(argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


def _setup(workload, workdir):
    import twinsurf  # noqa: F401
    import workloads

    workloads.warm_up(workload, workdir)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    role, rest = sys.argv[1], sys.argv[2:]
    sys.exit(_cli(rest) if role == "cli" else _setup(*rest))
