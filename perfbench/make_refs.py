"""Write planarity_ref.json: planarity_score of every chart input.

The chart workload checks each planarity_score against these values to
1e-12.  They were computed at the commit that defined the benchmark; run
``python3 perfbench/make_refs.py`` from the repository root only to
re-baseline after a deliberate change of the algorithm.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from twinsurf import default_domain, gauss_map, make_surface, planarity_score  # noqa: E402
from workloads import SMALL, VARIANTS, Chart, planarity_key, variant_params  # noqa: E402

refs = {}
for n in (SMALL, 513):
    for s in Chart.surfaces:
        for k in range(VARIANTS):
            params = variant_params(s, k)
            f = make_surface(s, params, default_domain(s, params, n, n))
            refs[planarity_key(s, k, n)] = planarity_score(gauss_map(f))
            print(planarity_key(s, k, n), repr(refs[planarity_key(s, k, n)]), flush=True)
with open(os.path.join(HERE, "planarity_ref.json"), "w") as fh:
    json.dump(refs, fh, indent=1, sort_keys=True)
    fh.write("\n")
