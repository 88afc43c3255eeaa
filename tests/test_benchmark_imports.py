"""Every name the benchmark harness imports from twinsurf still resolves, so
moving a function between modules cannot silently break ``perfbench``."""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _twinsurf_imports():
    """(file, module, name) for each name a ``perfbench`` file takes from
    twinsurf; name is None for a plain ``import twinsurf...``."""
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "twinsurf":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "twinsurf"]
    return found


def _resolves(module, name):
    """Whether ``from module import name`` (or ``import module``) succeeds."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_imports_from_twinsurf_resolves():
    imports = _twinsurf_imports()
    # the verify workload reads the tolerance from the twin module
    assert ("workloads.py", "twinsurf.twin", "default_tol") in imports
    assert [imp for imp in imports if not _resolves(*imp[1:])] == []
