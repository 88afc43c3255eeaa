"""Gauss map, hyperplane degeneracy, and the Weierstrass twin relation.

Every graph's Gauss map lands on the hyperquadric sum(z_k^2) = 0; for
gradient graphs of unimodular-Hessian potentials the image collapses to
a point on two complex hyperplanes.  The final section reads a twin pair
in the shared conformal coordinates of one chart, both built from one
checked reading of the surface, and measures the relation between the two
Weierstrass data sets.
"""

import numpy as np

from twinsurf import read_surface
from twinsurf.catalog import default_domain, make_surface
from twinsurf.conformal import build_chart, verify_weierstrass_twin
from twinsurf.fields import GridDomain, ScalarField
from twinsurf.gauss import gauss_map, hyperplane_fit, jorgens_gauss, planarity_score, quadric_residual
from twinsurf.twin import twin_forward

f = make_surface("catenoid", None, default_domain("catenoid", None, 129, 65))
g = gauss_map(f)
print("catenoid Gauss map")
print(f"  quadric residual   {quadric_residual(g):.3e}  (algebraic identity)")
print(f"  planarity score    {planarity_score(g):.3f}   (non-constant map)")
print(f"  fit z1 ~ lam z3    residual {hyperplane_fit(g, 1, 3).residual:.3f} "
      "(no hyperplane relation)")

qdom = GridDomain.from_bounds(-1.0, -1.0, 1.0, 1.0, 65, 65)
X, Y = qdom.meshgrid()
F = ScalarField(qdom, (X * X + Y * Y) / 2)
jg = jorgens_gauss(F)
print("\nGauss field of the unimodular quadratic F = (x^2+y^2)/2")
print(f"  planarity score    {planarity_score(jg):.3e}  (single point)")
for i, j in ((2, 3), (4, 1)):
    fit = hyperplane_fit(jg, i, j)
    print(f"  z{i} = lam z{j}:      lam = {fit.lam:.6f}, residual {fit.residual:.1e}")

reading = read_surface(f)  # one checked reading serves the twin and the chart
pair = twin_forward(reading)
chart = build_chart(reading)
out = verify_weierstrass_twin(pair, chart)
print("\nWeierstrass data of the catenoid twin pair on a shared chart")
print(f"  height relation residual {out['max_residual']:.3e}")
