"""Hyperbolic cone surfaces from triangulations with geodesic edges.

Build a surface from edge lengths and gluing data, read off its holonomy in
per-triangle charts of the upper half-plane, compute the Poisson bivector of
the edge-length coordinates, and retriangulate to a Delaunay form by flips.
"""

from .delaunay import (
    FlipMove,
    edge_invariant,
    edge_invariants,
    flip,
    flip_coordinate_jacobian,
    flip_length_jacobian,
    flip_new_length,
    make_delaunay,
)
from .holonomy import (
    HolonomyAtlas,
    alength_from_fixed_points,
    develop,
    holonomy_report,
    vertex_holonomy,
)
from .poisson import (
    angle_gradients,
    bivector_rank,
    eta_matrix,
    jacobi_residual,
    radical_residuals,
)
from .sl2 import (
    HypPoint,
    Sl2Matrix,
    Sl2Vector,
    axis_vector,
    elliptic_about,
    elliptic_pair_pairing,
    geodesic_pair_pairing,
    hyp_distance,
    hyp_exp,
    hyperbolic_along,
    log_perturbation,
    mixed_pairing,
    normalizing_isometry,
    sl2_exp,
    sl2_log,
    trace_form,
)
from .surface import (
    AngleData,
    ConeSurface,
    build_surface,
    classify_angles,
    cone_angles,
    corner_angle,
    parse_surface,
    serialize_surface,
)

__version__ = "0.1.0"
