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

from .linalg import DimensionError, QVector, int_adjugate, int_dot, scaled_ints
from .polytope import (
    DuplicatePoint,
    NotInConvexPosition,
    Polytope,
    PolytopeError,
    _hull_rays,
    checked_points,
    facet_masks,
    facets_of_face,
    hull_ints,
    least_face,
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
        """The triangulation with its cells sorted and deduplicated.  A
        points tuple is kept as the same object (tuple() returns a tuple
        unchanged), so validation can reuse the point table a polytope
        keeps for it."""
        canon = sorted({tuple(sorted(s)) for s in simplices})
        return cls(tuple(points), tuple(canon), dim)

    @property
    def n_simplices(self) -> int:
        return len(self.simplices)


class _PullContext:
    """Recursive pulling over the face lattice of one polytope.

    Faces are int bitmasks over P's vertex indices.  The facets of the top
    face are P's own facet masks, pairwise incomparable, and every lower
    face's come from facets_of_face on its parent's facet list (a face of
    a face E is cut out by E's facets alone), so the recursion touches no
    coordinates and a face scans its parent's few facets, not all of P's.
    A face pulled with no parent falls back to P's masks.  facets_of_face
    keeps the maximal candidates by popcount, largest first, so a face's
    facets arrive in that order; the cells are gathered in a set and
    sorted, so neither the order nor the parent reaches the result.  Each
    face's pulling triangulation is memoized on the face alone because
    neighbouring face chains share lower faces.
    """

    def __init__(self, p: Polytope, rank: dict[int, int]):
        self.rank = rank
        self.facet_masks = p.incidence_masks()
        self.top = (1 << p.n_vertices) - 1
        self.memo: dict[int, tuple[tuple[int, ...], ...]] = {}

    def pull(
        self, face: int, parent: Sequence[int] | None = None
    ) -> tuple[tuple[int, ...], ...]:
        if face & (face - 1) == 0:  # a single vertex
            return ((face.bit_length() - 1,),)
        if face not in self.memo:
            members = [i for i in range(face.bit_length()) if face >> i & 1]
            first = min(members, key=self.rank.__getitem__)
            if parent is None:
                parent = self.facet_masks
            subs = self.facet_masks if face == self.top else facets_of_face(face, parent)
            cells: set[tuple[int, ...]] = set()
            for sub in subs:
                if not sub >> first & 1:
                    cells.update(
                        tuple(sorted((first,) + tau)) for tau in self.pull(sub, subs)
                    )
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


# The last input star_triangulation accepted, as (points, frame, masks): the
# points' tuple, the frame of their hull and the double description's zero
# sets.  One entry, keyed on the points' value and re-keyed on every hit, so
# the next call on the same objects matches by identity; a rejected input is
# never kept.
_star_memo: tuple | None = None


def star_triangulation(
    points: Sequence[QVector], order: Sequence[int] | None = None
) -> Triangulation:
    """Star triangulation with respect to the origin.

    The input points must contain the origin exactly once, with the other
    points in convex position; non-extreme nonzero points are rejected.
    Three positions of the origin are handled: strictly inside the hull of
    the others, on its boundary, or outside with the whole point set in
    convex position.  The origin alone is its own one-cell star of dim 0.
    The star is the pulling triangulation of the hull of all points with
    the origin pulled first, then the other points in the optional order,
    which is what makes distinct star triangulations of the same shadow
    reachable; the default is input order.  Pulling the origin first cones
    it over every facet whose zero set misses it, whether or not it is a
    vertex: when it is none, no face pulled below the top holds it.

    Cost: one double description on all the points, the origin included,
    and no LP or membership test (see _star_hull).  The frame and the zero
    sets of the last accepted input are kept, so a call on equal points, as
    for the stars of one shadow under many orders, runs neither again.  The
    origin count, the order and `checked_points` run on every call, so the
    vertex cap counts the points other than the origin.
    """
    global _star_memo
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
    if len(pts) == 1:
        return Triangulation.make(pts, [(0,)], 0)
    others = [i for i in range(len(pts)) if i != z]
    dim = len(checked_points([pts[i] for i in others])[0])
    n = len(pts)
    key = tuple(pts)
    memo = _star_memo  # read once, so its key and its contents match
    # Tuple equality compares each pair by identity first, so the points of
    # one shadow's map match without hashing or comparing a coordinate.
    if memo is not None and memo[0] == key:
        _, fr, masks = memo
    else:
        fr, masks = _star_hull(pts, z, others, dim)
    _star_memo = (key, fr, masks)

    base = order if order is not None else list(range(n))
    # Pulling reads the facets' zero sets only, so the polytope gets the
    # double description's masks and never lifts a normal to ambient form.
    full = Polytope(pts, dim)
    full._frame, full._masks = fr, masks
    tri = pulling_triangulation(full, [z] + [i for i in base if i != z])
    if set(itertools.chain.from_iterable(tri.simplices)) != set(range(n)):
        raise ShadowInternalError("star construction failed to use every point")
    return tri


def _star_hull(pts: list[QVector], z: int, others: list[int], dim: int) -> tuple:
    """The frame of the hull of all points and the double description's
    zero sets on them, or the error that rejects the star's input.

    Point i is a vertex of the hull of all points iff `least_face` of its
    bit is its bit.  A point that is no vertex of the hull of the others is
    none of the hull of all points either, so the input is accepted iff
    every other point passes.  Then either the origin is a vertex (outside),
    or the hull of all points is the hull of the others (inside or on the
    boundary) and the same rays are its facets.  A rejected input pays a
    second double description, on the others alone, which names the first
    point in the others' hull; if there is none, the origin lies outside
    that hull and the first other point that fails in the hull of all
    points is named.  Points are named by their input index.
    """
    n = len(pts)
    if len(pts[z]) == dim:
        fr, raw = _hull_rays(pts)
        masks = [m for *_, m in raw]
        failing = [i for i in others if least_face(masks, 1 << i, n) != 1 << i]
    else:
        failing = others  # no double description on mixed dimensions
    if failing:
        try:
            sub = [m for *_, m in _hull_rays([pts[i] for i in others])[1]]
        except DuplicatePoint as exc:
            raise DuplicatePoint(others[exc.index], others[exc.first]) from None
        for j, i in enumerate(others):
            if least_face(sub, 1 << j, n - 1) != 1 << j:
                raise NotInConvexPosition(i)
        if len(pts[z]) != dim:
            raise DimensionError(f"point of dim {len(pts[z])} against ambient dim {dim}")
        # The others are in convex position, so the origin lies outside
        # their hull and swallows the first failing point.
        raise NotInConvexPosition(failing[0])
    return fr, masks


def spinal_triangulation(s: Spine) -> Triangulation:
    """Pulling triangulation with the spine pulled first; every maximal cell
    then contains the whole spine."""
    p = s.polytope
    uset = set(s.indices)
    rest = [i for i in range(p.n_vertices) if i not in uset]
    t = pulling_triangulation(p, list(s.indices) + rest)
    if any(not uset <= set(c) for c in t.simplices):
        raise ShadowInternalError("pulling with spine-first order was not spinal")
    return t


class ShadowMap:
    """Projection data for a spine: the vertex images under the orthogonal
    projector onto the complement of the spine's span (`shadow_points`),
    the star point table (`star_points`: the origin, then the non-spine
    images in vertex order) and, for each star point, its vertex index
    (`lift_indices`, -1 for the origin), the one table `lift` reads.

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
        self._den = den
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
    def spine_sq_volume(self) -> Fraction:
        """vol(U)^2 of the spine simplex: det G / (vscale^(2k) (k!)^2) with
        k = |U| - 1, as `gram_sq_volume` would give on the spine's points."""
        k = self.spine.n - 1
        scale = self.spine.polytope.frame().vscale
        return Fraction(self._den, scale ** (2 * k) * math.factorial(k) ** 2)


def shadow(sp: Spine) -> ShadowMap:
    """The spine's shadow map, built on the first call and kept on the spine,
    so the volume law, fold and lift of one spine share its projection and
    the shadow polytope it caches."""
    if sp._shadow is None:
        object.__setattr__(sp, "_shadow", ShadowMap(sp))
    return sp._shadow


def shadow_polytope(sm: ShadowMap) -> Polytope:
    """Convex hull of the projected vertex images (the origin included).

    Its vertices come from the spine's facet masks, with no vertex test.  Let
    L be the span of the differences u - u_0 over the spine U and pi the
    projection along L.

    (i) For every vertex v not in U, pi(v) is a vertex of the shadow.  Were
    pi(v) a convex combination of the other images, v = sum lambda_w w + l
    with l = sum nu_j u_j, sum nu_j = 0 and l != 0, since v is a vertex of P.
    Every facet F through v has a_F . l >= 0 and misses at most one point of
    U, so F contains every u_j with nu_j > 0, and at least one such j exists.
    The facets through v meet only in v, so u_j = v, a contradiction.

    (ii) The origin, the image of U, is a vertex of the shadow iff conv(U)
    is a face of P: a functional that exposes a face containing U is
    constant on U, so it is orthogonal to L.  conv(U) is a face iff
    `least_face` of U's mask over P's facet masks is U's mask.

    So the vertices are the non-spine images in vertex order, with the
    origin at position U[0] iff (ii) holds.  `ShadowMap` has already
    rejected two vertices with one image.
    """
    if sm._shadow_poly is None:
        sp = sm.spine
        p = sp.polytope
        u = vertex_mask(sp.indices)
        is_face = least_face(p.incidence_masks(), u, p.n_vertices) == u
        keep = [
            q
            for i, q in enumerate(sm.shadow_points)
            if not u >> i & 1 or (i == sp.indices[0] and is_face)
        ]
        sm._shadow_poly = Polytope(keep, p.ambient_dim)
    return sm._shadow_poly


def fold(t: Triangulation, sm: ShadowMap) -> Triangulation:
    """Project a spinal triangulation: spine vertices collapse to the origin,
    other vertices map to their shadow images; the result is validated
    against the shadow polytope."""
    p = sm.spine.polytope
    if t.points != p.vertices:
        raise TriangulationError("triangulation is not over the spine's polytope")
    uset = set(sm.spine.indices)
    star_of = {g: k for k, g in enumerate(sm.lift_indices) if g >= 0}
    _check_indices(t.simplices, len(t.points))
    cells = []
    for c in t.simplices:
        if not uset <= set(c):
            raise TriangulationError("triangulation is not spinal for this spine")
        cells.append(tuple(sorted([0] + [star_of[i] for i in c if i not in uset])))
    result = Triangulation.make(sm.star_points, cells, sm.e)
    ok, reason = validate_detailed(result, shadow_polytope(sm))
    if not ok:
        raise ShadowInternalError(
            f"fold of a spinal triangulation failed validation: {reason}"
        )
    return result


def lift(star: Triangulation, sm: ShadowMap) -> Triangulation:
    """Reconstruct the spinal triangulation over the original polytope from a
    star triangulation of the shadow: the origin expands to the whole spine,
    nonzero shadow vertices are replaced by their unique preimages.  The star
    must be over the map's own point table, `sm.star_points`; its cells are
    read off `sm.lift_indices`.  The result is validated against the
    polytope."""
    p = sm.spine.polytope
    # Tuple equality compares each pair by identity first, so a star built
    # on the map's own points is accepted without comparing a coordinate.
    if star.points != sm.star_points:
        raise TriangulationError("star is not over the shadow's point table")
    image = sm.lift_indices
    _check_indices(star.simplices, len(image))
    cells = []
    for c in star.simplices:
        lifted = [image[i] for i in c]
        if lifted.count(-1) != 1:
            raise TriangulationError("star cell must contain the origin exactly once")
        lifted.remove(-1)
        cells.append(tuple(sorted([*sm.spine.indices, *lifted])))
    result = Triangulation.make(p.vertices, cells, p.dim)
    ok, reason = validate_detailed(result, p)
    if not ok:
        raise TriangulationError(f"lift is not a triangulation of the polytope: {reason}")
    return result


def _check_indices(cells: Sequence[Sequence[int]], n: int) -> None:
    """Refuse the first cell with an index outside range(n), as
    validate_detailed words it, before any cell is read through a table."""
    used = set().union(*cells)
    if used and (min(used) < 0 or max(used) >= n):
        bad = next(c for c in cells if any(not 0 <= i < n for i in c))
        raise TriangulationError(f"cell {bad} references a missing point")


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
    coords, scale, on_facet, dets = _point_table(p, t.points)
    if isinstance(coords, str):
        return False, coords
    if not t.simplices:
        return False, "no maximal simplices"
    for c in t.simplices:
        if len(c) != k + 1 or len(set(c)) != k + 1:
            return False, f"cell {c} does not have {k + 1} distinct vertices"
        if min(c) < 0 or max(c) >= n:
            return False, f"cell {c} references a missing point"
    # Cells stay a list: a repeated cell repeats its ridges and is caught.
    cells = []
    abs_total = 0
    for c in t.simplices:
        s = tuple(sorted(c))
        d = dets.get(s)
        if d is None:
            d = dets[s] = cell_det(coords, s)
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
    if isinstance(on_facet, str):
        return False, on_facet
    ridges: dict[tuple[int, ...], list[bool]] = {}
    for c, positive in cells:
        for j in range(k + 1):
            side = positive != bool((k - j) & 1)
            ridges.setdefault(c[:j] + c[j + 1 :], []).append(side)
    # A ridge is on the boundary iff its points share a facet.  The AND
    # starts from -1, all facets, so the empty ridge of a point's one cell
    # is a boundary ridge.
    for ridge, sides in ridges.items():
        if functools.reduce(operator.and_, map(on_facet.__getitem__, ridge), -1):
            if len(sides) != 1:
                return False, f"boundary ridge {ridge} belongs to {len(sides)} cells"
            continue
        if len(sides) != 2:
            return False, f"interior ridge {ridge} belongs to {len(sides)} cells"
        if sides[0] == sides[1]:
            return False, f"the cells on ridge {ridge} lie on the same side of it"
    return True, "ok"


def _point_table(p: Polytope, points: tuple[QVector, ...]) -> tuple:
    """(coords, scale, on_facet, dets) of points against p: their hull
    coordinates as integers at one scale, for each point the bitmask whose
    bit j is set iff it lies on facet j's hyperplane, and a dict from each
    sorted cell validated on them to its `cell_det` on coords, filled by
    validate_detailed.  A failure is kept as its reason in place of what it
    stops: a point off the affine hull replaces coords, a point beyond a
    facet replaces on_facet.

    p keeps the table of the last points tuple it was given and hands it back
    while the same tuple object comes again, so the folds of one shadow,
    which all share the map's `star_points`, build it once, and the lifts
    and folds of its stars share their cells' determinants."""
    memo = p._point_table
    if memo is not None and memo[0] is points:
        return memo[1]
    fr = p.frame()
    if points is p.vertices:
        on_facet = [0] * len(points)
        for j, f in enumerate(p.facets()):
            for i in f.incident:
                on_facet[i] |= 1 << j
        table = (fr.icoords, fr.scale, on_facet)
    else:
        amb, q = scaled_ints(points)
        try:
            coords, scale = hull_ints(fr, amb, q)
        except PolytopeError:
            table = ("a point lies outside the affine hull of the polytope", None, None)
        else:
            try:
                on_facet = facet_masks(p.facets(), amb, q)
            except PolytopeError as exc:
                on_facet = str(exc)
            table = (coords, scale, on_facet)
    table += ({},)
    if type(points) is tuple:  # a list could change under the same identity
        p._point_table = (points, table)
    return table
