"""Computing norms in a sum of a smoothness space and an atomic weighted Lp space.

The package builds, for a finite atomic measure on R^n (n in {1, 2}) and an
exponent p > n:

  * a separated measure-concentration net and its cube family,
  * a dyadic Whitney cover of the net complement with a smooth partition of
    unity, anchors, and lacuna structure,
  * the linear near-optimal decomposition ``f = T1 f + T2 f`` together with
    numerical estimates of both summand norms,
  * oscillation-sum functionals that bound the sum-space norm from below,
  * K-functional curves, and
  * an exact one-dimensional convex-optimization oracle for verification.
"""

from .geometry import (
    Cube,
    CubeFamily,
    color_disjoint,
    cube_contains,
    cubes_intersect,
    select_min_disjoint,
)
from .measure import AtomicMeasure, SampledFunction, average, load_function, load_measure, lp_norm
from .concentration import (
    ConcentrationNet,
    Params,
    build_net,
    concentration_radius,
    concentration_radius_batch,
    verify_concentration,
)

__version__ = "0.1.0"
