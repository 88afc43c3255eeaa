import numpy as np
import pytest

from twinsurf.catalog import default_domain, make_surface
from twinsurf.fields import GridDomain, HeightMap


def surface(name, nx, ny, params=None):
    dom = default_domain(name, params, nx, ny)
    return make_surface(name, params, dom)


def random_heightmap(rng, domain, n=1, amplitude=0.3):
    """Smooth but otherwise arbitrary height map (no PDE satisfied)."""
    X, Y = domain.meshgrid()
    comps = []
    for _ in range(n):
        a, b = rng.uniform(-amplitude, amplitude, 2)
        kx, ky = rng.uniform(-2.0, 2.0, 2)
        ph = rng.uniform(0, 2 * np.pi)
        comps.append(a * np.sin(kx * X + ky * Y + ph) + b * X * Y)
    return HeightMap(domain, comps)


@pytest.fixture
def square_domain():
    return GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)


def same_bits(a, b) -> bool:
    """``a`` and ``b`` have one dtype and shape and the same bits at every
    node, signed zeros included (read through ``.view(np.uint64)``)."""
    a, b = (np.ascontiguousarray(np.atleast_1d(x)) for x in (a, b))
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def bit_inputs(rng, shape):
    """Real and complex grid arrays for bitwise oracle tests, contiguous
    and strided (a slice ``g[..., k]`` of a field), with signed zeros and
    magnitudes from 1e-8 to 1e8."""
    scale = 10.0 ** rng.integers(-8, 9, shape)
    real = rng.standard_normal(shape) * scale
    real[0, :2] = -0.0
    real[1, 0] = 0.0
    cplx = real + 1j * rng.standard_normal(shape)
    g = rng.standard_normal(shape + (3,)) + 1j * rng.standard_normal(shape + (3,))
    return {
        "real": real,
        "complex": cplx,
        "strided_real": g.real[..., 1],
        "strided_complex": g[..., 2],
    }
