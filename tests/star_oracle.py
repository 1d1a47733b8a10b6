"""The former star triangulation, kept as the tests' oracle.

`lp_star_triangulation` is the library's former `star_triangulation`, kept
verbatim but for its name, for the parent facet list, the hull's own,
that it hands `_PullContext.pull` with each facet, and for pulling each
facet's `vertex_mask(f.incident)`, not the mask at its position in
`incidence_masks()`, which pairs with `facets()` by position only on some
polytopes (see `Polytope.incidence_masks`).  It builds the hull of
the non-origin points with `make_polytope` (one exact LP per point), asks
`Polytope.contains` where the origin lies (one facet enumeration of that
hull), and in the outside case builds and enumerates the polytope of all
points a second time.
`star_triangulation` now reads all of that off one double description of all
the points; `tests/test_star_oracle.py` checks that both give the same cells
and dimension, or the same exception type and message.

Deliberate differences: the origin alone is its own star, which this route
rejects as an empty hull; the 30-vertex cap counts the points other than
the origin, not all points; an origin of another dimension is refused
before the others' convex position is checked, not after; and a rejected
input names the first point other than the origin that is no vertex of the
hull of all points, where this route names the first point in the hull of
the others and only then one that the origin swallows.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from spinaltri.linalg import QVector
from spinaltri.polytope import DuplicatePoint, NotInConvexPosition, make_polytope, vertex_mask
from spinaltri.triangulation import (
    ShadowInternalError,
    Triangulation,
    TriangulationError,
    _PullContext,
    pulling_triangulation,
)


def lp_star_triangulation(
    points: Sequence[QVector], order: Sequence[int] | None = None
) -> Triangulation:
    """Star triangulation with respect to the origin.

    The input points must contain the origin exactly once, with the other
    points in convex position; non-extreme nonzero points are rejected.
    Three positions of the origin are handled: strictly inside the hull of
    the others, on its boundary, or outside with the whole point set in
    convex position.  The optional order steers the underlying pulling
    triangulations, which is what makes distinct star triangulations of the
    same shadow reachable; the default is input order.
    """
    pts = [q if isinstance(q, QVector) else QVector(q) for q in points]
    zeros = [i for i, q in enumerate(pts) if q.is_zero()]
    if len(zeros) != 1:
        raise TriangulationError(
            f"need the origin exactly once among the points, found {len(zeros)}"
        )
    z = zeros[0]
    if order is not None:
        order = list(order)
        if sorted(order) != list(range(len(pts))):
            raise TriangulationError("order must be a permutation of the point indices")
    others = [i for i in range(len(pts)) if i != z]
    try:  # rejects non-extreme points, named by their input index
        hull = make_polytope([pts[i] for i in others])
    except DuplicatePoint as exc:
        raise DuplicatePoint(others[exc.index], others[exc.first]) from None
    except NotInConvexPosition as exc:
        raise NotInConvexPosition(others[exc.index]) from None

    if not hull.contains(pts[z]):
        # Origin outside: the full point set must be in convex position and
        # the origin is then a hull vertex; pulling with the origin first is
        # a star triangulation.
        full = make_polytope(pts)
        base = order if order is not None else list(range(len(pts)))
        pull_order = [z] + [i for i in base if i != z]
        return pulling_triangulation(full, pull_order)

    # Origin inside or on the boundary: cone from the origin over the
    # boundary cells of every facet whose affine hull misses the origin.
    base = order if order is not None else list(range(len(pts)))
    local_of = {g: l for l, g in enumerate(others)}
    local_rank = {local_of[g]: i for i, g in enumerate(base) if g != z}
    ctx = _PullContext(hull, local_rank)
    cells: set[tuple[int, ...]] = set()
    for facet in hull.facets():
        if facet.offset == 0:
            continue  # origin lies in this facet's hyperplane; cone is flat
        for tau in ctx.pull(vertex_mask(facet.incident), ctx.facet_masks):
            cells.add(tuple(sorted((z,) + tuple(others[j] for j in tau))))
    tri = Triangulation.make(pts, cells, hull.dim)
    used = set(itertools.chain.from_iterable(tri.simplices))
    if used != set(range(len(pts))):
        raise ShadowInternalError("star construction failed to use every point")
    return tri
