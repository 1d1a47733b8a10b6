"""Exact-arithmetic spinal triangulations of convex polytopes.

Spine detection, pulling/star/spinal triangulations, the fold/lift
correspondence between triangulations of a polytope and of its shadow under
the spine projection, the accompanying volume law, and the Everest and
Birkhoff polytope applications.
"""

from .linalg import (
    DimensionError,
    QVector,
    det,
    format_rational,
    gram_sq_volume,
    kernel_basis,
    parse_rational,
    rank,
)
from .polytope import (
    DuplicatePoint,
    Facet,
    NotInConvexPosition,
    Polytope,
    PolytopeError,
    extreme_points,
    make_polytope,
)
from .spine import Spine, SpineError, enumerate_spines, is_spine, spine
from .triangulation import (
    ShadowMap,
    Triangulation,
    TriangulationError,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    shadow_polytope,
    spinal_triangulation,
    star_triangulation,
    validate,
)
from .volume import VolumeReport, lifting_relation_report, polytope_volume
from .everest import (
    EverestParams,
    c_constant,
    everest_polytope,
    everest_verify,
    everest_volume,
    g_eval,
    se_matrix,
    se_square_matrices,
    simplotope_with_spine,
    vertex_families,
)
from .birkhoff import (
    BirkhoffContext,
    birkhoff_context,
    determinant_identities,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
