"""Triangulations of polytopes: pulling, star, and spinal constructions.

The central correspondence implemented here: given a spine U of a polytope P,
the orthogonal projection along the affine span of U sends P to a shadow in
the complementary subspace.  Triangulations of P whose cells all contain U
("spinal") fold to triangulations of the shadow whose cells all contain the
origin ("star"), and every star triangulation of the shadow lifts back.  The
two maps are mutually inverse bijections on maximal cells.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import QMatrix, QVector, int_adjugate, int_dot
from .polytope import (
    Polytope,
    PolytopeError,
    extreme_points,
    facet_masks,
    facets_of_face,
    hull_ints,
    make_polytope,
    scaled_ints,
    vertex_mask,
)
from .spine import Spine


class TriangulationError(ValueError):
    pass


class ShadowInternalError(RuntimeError):
    """A projection property that the theory guarantees failed to hold."""


@dataclass(frozen=True)
class Triangulation:
    """Maximal simplices as sorted index tuples into a shared point table."""

    points: tuple[QVector, ...]
    simplices: tuple[tuple[int, ...], ...]
    dim: int

    @classmethod
    def make(
        cls,
        points: Sequence[QVector],
        simplices: Iterable[Sequence[int]],
        dim: int,
    ) -> "Triangulation":
        canon = sorted({tuple(sorted(s)) for s in simplices})
        return cls(tuple(points), tuple(canon), dim)

    @property
    def n_simplices(self) -> int:
        return len(self.simplices)


class _PullContext:
    """Recursive pulling over the face lattice of one polytope.

    Faces are int bitmasks over P's vertex indices.  P's facets are
    enumerated once and every lower face comes from facets_of_face, so the
    recursion touches no coordinates.  Each face's pulling triangulation is
    memoized because neighbouring face chains share lower faces.
    """

    def __init__(self, p: Polytope, rank: dict[int, int]):
        self.rank = rank
        self.facet_masks = (
            [vertex_mask(f.incident) for f in p.facets()] if p.n_vertices > 1 else []
        )
        self.memo: dict[int, tuple[tuple[int, ...], ...]] = {}

    def pull(self, face: int) -> tuple[tuple[int, ...], ...]:
        if face & (face - 1) == 0:  # a single vertex
            return ((face.bit_length() - 1,),)
        if face not in self.memo:
            members = [i for i in range(face.bit_length()) if face >> i & 1]
            first = min(members, key=self.rank.__getitem__)
            cells: set[tuple[int, ...]] = set()
            for sub in facets_of_face(face, self.facet_masks):
                if not sub >> first & 1:
                    cells.update(tuple(sorted((first,) + tau)) for tau in self.pull(sub))
            self.memo[face] = tuple(sorted(cells))
        return self.memo[face]


def _normalize_order(p: Polytope, order: Sequence[int] | None) -> list[int]:
    if order is None:
        return list(range(p.n_vertices))
    order = list(order)
    if sorted(order) != list(range(p.n_vertices)):
        raise TriangulationError("order must be a permutation of all vertex indices")
    return order


def pulling_triangulation(p: Polytope, order: Sequence[int] | None = None) -> Triangulation:
    """Pulling triangulation: recursively join each face's first vertex with
    the pulling triangulations of the face's facets avoiding that vertex."""
    order = _normalize_order(p, order)
    rank = {v: i for i, v in enumerate(order)}
    cells = _PullContext(p, rank).pull((1 << p.n_vertices) - 1)
    want = p.dim + 1
    if any(len(c) != want for c in cells):
        raise TriangulationError("pulling produced a cell of the wrong dimension")
    return Triangulation.make(p.vertices, cells, p.dim)


def star_triangulation(
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
    hull = make_polytope([pts[i] for i in others])  # rejects non-extreme points

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
        if facet.normal.dot(pts[z]) == facet.offset:
            continue  # origin lies in this facet's hyperplane; cone is flat
        for tau in ctx.pull(vertex_mask(facet.incident)):
            cells.add(tuple(sorted((z,) + tuple(others[j] for j in tau))))
    tri = Triangulation.make(pts, cells, hull.dim)
    used = set(itertools.chain.from_iterable(tri.simplices))
    if used != set(range(len(pts))):
        raise ShadowInternalError("star construction failed to use every point")
    return tri


def spinal_triangulation(s: Spine) -> Triangulation:
    """Pulling triangulation with the spine pulled first; every maximal cell
    then contains the whole spine."""
    p = s.polytope
    rest = [i for i in range(p.n_vertices) if i not in set(s.indices)]
    t = pulling_triangulation(p, list(s.indices) + rest)
    uset = set(s.indices)
    if any(not uset <= set(c) for c in t.simplices):
        raise ShadowInternalError("pulling with spine-first order was not spinal")
    return t


class ShadowMap:
    """Projection data for a spine: the orthogonal projector onto the
    complement of the spine's span, the projected vertex images, and the
    bijection from nonzero images back to original vertices.

    With A~ the integer spine directions (columns vscale * (u_j - u_0)) and
    G = A~^T A~, the projector is P'/det G for the integer numerator
    P' = det(G) I - A~ adj(G) A~^T, and the image of a vertex v is
    P'(v - u_0) / (det G vscale).
    """

    def __init__(self, sp: Spine):
        p = sp.polytope
        d = p.ambient_dim
        fr = p.frame()
        self.spine = sp
        self.translation = p.vertices[sp.indices[0]]
        t = fr.ivertices[sp.indices[0]]
        diffs = [[a - b for a, b in zip(v, t)] for v in fr.ivertices]
        a_cols = [diffs[i] for i in sp.indices[1:]]
        a_rows = [[c[r] for c in a_cols] for r in range(d)]
        adj, den = int_adjugate([[int_dot(u, w) for w in a_cols] for u in a_cols])
        a_adj = [[int_dot(row, col) for col in zip(*adj)] for row in a_rows]
        num = [
            [den * (r == c) - int_dot(a_adj[r], a_rows[c]) for c in range(d)]
            for r in range(d)
        ]
        # Symmetric, then (P'^2)[r][c] = P'[r] . P'[c].
        if any(
            num[r][c] != num[c][r] or int_dot(num[r], num[c]) != den * num[r][c]
            for r in range(d)
            for c in range(d)
        ):
            raise ShadowInternalError("projector is not symmetric idempotent")
        self._num, self._den = num, den
        inum = [tuple(int_dot(row, w) for row in num) for w in diffs]
        uset = set(sp.indices)
        for i in sp.indices:
            if any(inum[i]):
                raise ShadowInternalError("a spine point escaped the kernel")
        seen: dict[tuple, int] = {}
        for i, w in enumerate(inum):
            if i in uset:
                continue
            if not any(w):
                raise ShadowInternalError(f"non-spine vertex {i} projected to zero")
            if w in seen:
                raise ShadowInternalError(f"vertices {seen[w]} and {i} share a projection")
            seen[w] = i
        scale = den * fr.vscale
        images = tuple(QVector([Fraction(x, scale) for x in w]) for w in inum)
        self.shadow_points = images
        nonspine = [i for i in range(p.n_vertices) if i not in uset]
        self.star_points = (QVector.zero(d),) + tuple(images[i] for i in nonspine)
        self.lift_indices = (-1,) + tuple(nonspine)
        self.e = p.dim - sp.n + 1
        self._shadow_poly: Polytope | None = None

    @property
    def projection(self) -> QMatrix:
        """The orthogonal projector P'/det G over Q."""
        return QMatrix(
            [[Fraction(x, self._den) for x in row] for row in self._num],
            cols=len(self._num),
        )

    @property
    def lift_table(self) -> dict[QVector, int]:
        return {
            self.star_points[k]: self.lift_indices[k]
            for k in range(1, len(self.star_points))
        }


def shadow(sp: Spine) -> ShadowMap:
    return ShadowMap(sp)


def shadow_polytope(sm: ShadowMap) -> Polytope:
    """Convex hull of the projected vertex images (the origin included)."""
    if sm._shadow_poly is None:
        ext = extreme_points(list(sm.shadow_points))
        sm._shadow_poly = Polytope(ext, sm.spine.polytope.ambient_dim)
    return sm._shadow_poly


def fold(t: Triangulation, sm: ShadowMap, *, check: bool = True) -> Triangulation:
    """Project a spinal triangulation: spine vertices collapse to the origin,
    other vertices map to their shadow images."""
    p = sm.spine.polytope
    if t.points != p.vertices:
        raise TriangulationError("triangulation is not over the spine's polytope")
    uset = set(sm.spine.indices)
    star_of = {g: k for k, g in enumerate(sm.lift_indices) if g >= 0}
    cells = []
    for c in t.simplices:
        if not uset <= set(c):
            raise TriangulationError("triangulation is not spinal for this spine")
        cells.append(tuple(sorted([0] + [star_of[i] for i in c if i not in uset])))
    result = Triangulation.make(sm.star_points, cells, sm.e)
    if check:
        ok, reason = validate_detailed(result, shadow_polytope(sm))
        if not ok:
            raise ShadowInternalError(
                f"fold of a spinal triangulation failed validation: {reason}"
            )
    return result


def lift(star: Triangulation, sm: ShadowMap, *, check: bool = True) -> Triangulation:
    """Reconstruct the spinal triangulation over the original polytope from a
    star triangulation of the shadow: the origin expands to the whole spine,
    nonzero shadow vertices are replaced by their unique preimages."""
    p = sm.spine.polytope
    table = sm.lift_table
    cells = []
    for c in star.simplices:
        pts = [star.points[i] for i in c]
        zero_count = sum(1 for q in pts if q.is_zero())
        if zero_count != 1:
            raise TriangulationError("star cell must contain the origin exactly once")
        lifted = list(sm.spine.indices)
        for q in pts:
            if q.is_zero():
                continue
            orig = table.get(q)
            if orig is None:
                raise TriangulationError(f"star vertex {q!r} not in the lift table")
            lifted.append(orig)
        cells.append(tuple(sorted(lifted)))
    result = Triangulation.make(p.vertices, cells, p.dim)
    if check:
        ok, reason = validate_detailed(result, p)
        if not ok:
            raise TriangulationError(
                f"lift is not a triangulation of the polytope: {reason}"
            )
    return result


def validate(t: Triangulation, p: Polytope) -> bool:
    ok, _ = validate_detailed(t, p)
    return ok


def validate_detailed(t: Triangulation, p: Polytope) -> tuple[bool, str]:
    """Exact triangulation validation by the interior-ridge property (De
    Loera, Rambau and Santos, *Triangulations*, 2010, Ch. 4): full-dimensional
    cells with volumes summing to the polytope volume, every point used and
    inside P, each ridge on the boundary of P in exactly one cell, and each
    other ridge in exactly two cells on opposite sides of it.

    Everything runs on integer hull coordinates at one scale.  The side of a
    ridge comes from the cell determinants: for a cell with sorted vertices
    c_0 < ... < c_k and signed edge determinant D, moving row c_j last takes
    k - j transpositions, so the apex c_j lies on the side (-1)^(k-j) sign D
    of the ridge c minus c_j, oriented by its own sorted order.
    """
    from .volume import cell_det, polytope_relative_volume

    k = p.dim
    n = len(t.points)
    if k == 0:
        if tuple(t.simplices) == ((0,),) and n == 1:
            return True, "ok"
        return False, "a point polytope is triangulated by itself only"
    fr = p.frame()
    on_vertices = t.points is p.vertices
    if on_vertices:
        coords, scale = fr.icoords, fr.scale
    else:
        amb, q = scaled_ints(t.points)
        try:
            coords, scale = hull_ints(fr, amb, q)
        except PolytopeError:
            return False, "a point lies outside the affine hull of the polytope"
    if not t.simplices:
        return False, "no maximal simplices"
    for c in t.simplices:
        if len(c) != k + 1 or len(set(c)) != k + 1:
            return False, f"cell {c} does not have {k + 1} distinct vertices"
        if any(not 0 <= i < n for i in c):
            return False, f"cell {c} references a missing point"
    # Cells stay a list: a repeated cell repeats its ridges and is caught.
    cells = []
    abs_total = 0
    for c in t.simplices:
        s = sorted(c)
        d = cell_det(coords, s)
        if d == 0:
            return False, f"cell {c} is degenerate"
        cells.append((s, d > 0))
        abs_total += abs(d)
    total = Fraction(abs_total, scale**k * math.factorial(k))
    expected = polytope_relative_volume(p)
    if total != expected:
        return False, f"cell volumes sum to {total}, polytope volume is {expected}"
    used = set(itertools.chain.from_iterable(t.simplices))
    if used != set(range(n)):
        return False, "some points are not vertices of any cell"
    # Bit j of on_facet[i] is set iff point i lies on facet j's hyperplane.
    facets = p.facets()
    if on_vertices:
        on_facet = [0] * n
        for j, f in enumerate(facets):
            for i in f.incident:
                on_facet[i] |= 1 << j
    else:
        try:
            on_facet = facet_masks(facets, amb, q)
        except PolytopeError as exc:
            return False, str(exc)
    ridges: dict[tuple[int, ...], list[bool]] = {}
    for c, positive in cells:
        for j, drop in enumerate(c):
            side = positive != bool((k - j) & 1)
            ridges.setdefault(tuple(i for i in c if i != drop), []).append(side)
    for ridge, sides in ridges.items():
        if functools.reduce(operator.and_, (on_facet[i] for i in ridge)):
            if len(sides) != 1:
                return False, f"boundary ridge {ridge} belongs to {len(sides)} cells"
            continue
        if len(sides) != 2:
            return False, f"interior ridge {ridge} belongs to {len(sides)} cells"
        if sides[0] == sides[1]:
            return False, f"the cells on ridge {ridge} lie on the same side of it"
    return True, "ok"
