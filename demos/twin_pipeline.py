"""Twin correspondence walkthrough on the catenoid.

Builds the maximal twin of a minimal graph, checks every invariant the
construction promises, and recovers the original surface by the inverse
transform.
"""

import numpy as np

from twinsurf import read_surface
from twinsurf.catalog import default_domain, make_surface
from twinsurf.twin import twin_backward, twin_forward

dom = default_domain("catenoid", None, 129, 65)
f = make_surface("catenoid", None, dom)
print(f"catenoid on [{dom.x0}, {dom.x1}] x [{dom.y0}, {dom.y1}], "
      f"{dom.nx}x{dom.ny} nodes")
reading = read_surface(f)  # the minimal residual, checked once
print(f"  scaled minimal residual: {reading.worst:.3e}")

pair = twin_forward(reading)
d = pair.diagnostics
print("\ntwin_forward diagnostics")
print(f"  c1 (gradient relation)    {d.c1_residual:.3e}")
print(f"  c2 (Jacobian preserved)   {d.c2_residual:.3e}")
print(f"  c3 (angle duality)        {d.c3_residual:.3e}")
print(f"  c4 (metric ratios match)  {d.c4_residual:.3e}")
print(f"  involution |f - f~~|      {d.involution_residual:.3e}")
print(f"  twin is maximal to        {pair.built_residual:.3e}")

back = twin_backward(pair.g)
err = np.abs(
    (back.f.components[0] - back.f.components[0][0, 0])
    - (f.components[0] - f.components[0][0, 0])
).max()
print(f"\nbackward transform recovers f to {err:.3e} (after re-anchoring)")
