"""Twin correspondences between minimal, maximal and special Lagrangian
graphs, computed and verified on discrete grids.

Imported before numpy, twinsurf pins OpenMP, OpenBLAS and MKL to one
thread (BLAS reads its thread count when numpy loads): OpenBLAS takes
other ``gemm``, ``gemv`` and ``dot`` kernels on one thread than on
several, and the solver's fixed point moves in the last bits with them.
So every report and file is byte-identical at any thread setting.  A
caller who imports numpy first keeps its own setting.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = "1"

from .catalog import (
    MINIMAL_SURFACES,
    SURFACES,
    default_domain,
    known_lift,
    make_surface,
)
from .conformal import (
    ConformalChart,
    NullCurveField,
    build_chart,
    default_target_grid,
    null_curve,
    resample_to_chart,
    verify_weierstrass_twin,
)
from .errors import TwinsurfError
from .fields import (
    GridDomain,
    HeightMap,
    JacobianData,
    MetricData,
    ScalarField,
    closedness_residual_field,
    first_fundamental_form,
    integrate_exact_form,
    jacobian_data,
)
from .gauss import (
    gauss_map,
    hyperplane_fit,
    jorgens_gauss,
    planarity_score,
    quadric_residual,
)
from .gfield import read_gfield, read_heightmap, write_gfield, write_heightmap
from .slag import SLLift, SLParams, detect_angle, graph_rotate, sl_lift, sl_residual, split_sl_residual
from .solver import SolveResult, solve_maximal, solve_minimal
from .systems import (
    ResidualReport,
    SurfaceReading,
    closedness_identities,
    divergence_residual,
    maximal_residual,
    minimal_residual,
    read_surface,
)
from .twin import (
    TwinDiagnostics,
    TwinPair,
    twin_backward,
    twin_forward,
    verify_twin,
)
from .verify import verify_surface

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
