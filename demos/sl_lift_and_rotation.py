"""Special Lagrangian lift and symplectic graph rotation.

Lifts Scherk's surface to its area-preserving gradient map (M, N) and
the unimodular-Hessian potential h, compares against the closed forms,
then shows the quadratic graph-rotation algebra.
"""

import numpy as np

from twinsurf.catalog import default_domain, known_lift, make_surface
from twinsurf.fields import GridDomain, ScalarField, diff_x, diff_y
from twinsurf.slag import SLParams, detect_angle, graph_rotate, sl_lift

dom = default_domain("scherk", None, 129, 129)
f = make_surface("scherk", None, dom)
lift = sl_lift(f)
print("Scherk lift residuals")
print(f"  |M_y - N_x|        {lift.gradient_symmetry_residual:.3e}")
print(f"  |d(M,N)/d(x,y) - 1| {lift.area_preservation_residual:.3e}")
print(f"  |det D^2 h - 1|    {lift.hessian_det_residual:.3e}")

X, Y = dom.meshgrid()
M, N = known_lift("scherk")(X, Y)
for label, num, exact in (("M", lift.M.values, M), ("N", lift.N.values, N)):
    aligned = exact - exact[0, 0] + num[0, 0]
    print(f"  |{label} - closed form|  {np.abs(num - aligned).max():.3e}")

theta, spread = detect_angle(lift.h, "euclidean")
print(f"  detected Lagrangian angle {theta:.6f} (pi/2 = {np.pi/2:.6f}, "
      f"spread {spread:.1e})")

# graph rotation: a quadratic solving the symplectic Monge-Ampere equation
# rotates onto a solution of det D^2 h = 1
qdom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 33, 33)
QX, QY = qdom.meshgrid()
a, b, c, eps = 1.2, -0.4, 0.3, 1
A, B = a + b, 1.0 - eps * (a * b - c * c)
s = np.sqrt(B * B + eps * A * A)
params = SLParams(B / s, -A / s, eps)
F = ScalarField(qdom, (a * QX**2 + 2 * c * QX * QY + b * QY**2) / 2)
h = graph_rotate(F, params)
hxx = diff_x(diff_x(h.values, qdom.dx), qdom.dx)
hyy = diff_y(diff_y(h.values, qdom.dy), qdom.dy)
hxy = diff_y(diff_x(h.values, qdom.dx), qdom.dy)
print("\ngraph rotation of a random-ish quadratic")
print(f"  max |det D^2 h - 1| = {np.abs(hxx * hyy - hxy**2 - 1).max():.3e}")
