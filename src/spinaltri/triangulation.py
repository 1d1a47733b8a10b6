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
from typing import Callable, Iterable, Sequence

from .linalg import DimensionError, QVector, int_adjugate, int_dot
from .polytope import (
    Polytope,
    _check_vertices,
    _hull,
    _polytope_with_faces,
    checked_points,
    facets_of_face,
    least_face,
    maximal_masks,
    point_table,
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
    facets_of_face keeps the maximal candidates by popcount, largest first,
    so a face's facets arrive in that order; the cells are gathered in a
    set and sorted, so neither the order nor the parent reaches the result.
    Each face's pulling triangulation is memoized on the face alone because
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
            subs = self.facet_masks if face == self.top else facets_of_face(face, parent)
            cells: set[tuple[int, ...]] = set()
            for sub in subs:
                if not sub >> first & 1:
                    cells.update(
                        tuple(sorted((first,) + tau)) for tau in self.pull(sub, subs)
                    )
            self.memo[face] = tuple(sorted(cells))
        return self.memo[face]


def _permutation(order: Sequence[int] | None, n: int, noun: str) -> list[int]:
    """order as a list, range(n) when None; refused unless it permutes range(n)."""
    if order is None:
        return list(range(n))
    order = list(order)
    if sorted(order) != list(range(n)):
        raise TriangulationError(f"order must be a permutation of {noun}")
    return order


def pulling_triangulation(p: Polytope, order: Sequence[int] | None = None) -> Triangulation:
    """Pulling triangulation: recursively join each face's first vertex with
    the pulling triangulations of the face's facets avoiding that vertex."""
    order = _permutation(order, p.n_vertices, "all vertex indices")
    rank = {v: i for i, v in enumerate(order)}
    cells = _PullContext(p, rank).pull((1 << p.n_vertices) - 1)
    want = p.dim + 1
    if any(len(c) != want for c in cells):
        raise TriangulationError("pulling produced a cell of the wrong dimension")
    return Triangulation.make(p.vertices, cells, p.dim)


# The last input star_triangulation accepted, as (points, hull): the points'
# tuple and their hull polytope from polytope._hull, which keeps the frame and
# the double description's zero sets.  One entry, keyed on the points' value
# and re-keyed on every hit, so the next call on the same objects matches by
# identity; a rejected input is never kept.
_star_memo: tuple | None = None


def star_triangulation(
    points: Sequence[QVector], order: Sequence[int] | None = None
) -> Triangulation:
    """Star triangulation with respect to the origin.

    The input points must contain the origin exactly once, of the others'
    dimension, and every other point must be a vertex of the hull of all
    points; the origin may lie inside the others' hull, on its boundary, or
    outside it as a vertex.  The origin alone is its own one-cell star of
    dim 0.  The star is the pulling triangulation of the hull of all points
    with the origin pulled first, then the other points in the optional
    order, which is what makes distinct star triangulations of the same
    shadow reachable; the default is input order.  Pulling the origin first
    cones it over every facet whose zero set misses it, whether or not it is
    a vertex: when it is none, no face pulled below the top holds it.

    Cost: one double description on all the points, which may be redundant
    (Fukuda and Prodon 1996), and no LP.  The vertex rule is
    `_vertex_polytope`'s on the same list, the origin exempt.  A rejected
    input names the first other point that fails, or a repeated point, by
    input index.  The hull polytope of the last accepted input, which holds
    the frame and the zero sets, is kept, so a call on equal points, as for
    the stars of one shadow under many orders, pulls it and runs neither
    again.  The star keeps this call's points, a tuple of QVectors as the
    same object, so that validating a star of `ShadowMap.star_points`
    against the shadow reuses the point table the shadow keeps for that
    tuple.  The origin count, the order, `checked_points` and the origin's
    dimension run on every call, so the vertex cap counts the points other
    than the origin.
    """
    global _star_memo
    if type(points) is tuple and all(isinstance(q, QVector) for q in points):
        pts = points
    else:
        pts = tuple(q if isinstance(q, QVector) else QVector(q) for q in points)
    zeros = [i for i, q in enumerate(pts) if q.is_zero()]
    if len(zeros) != 1:
        raise TriangulationError(
            f"need the origin exactly once among the points, found {len(zeros)}"
        )
    z = zeros[0]
    order = _permutation(order, len(pts), "the point indices")
    if len(pts) == 1:
        return Triangulation.make(pts, [(0,)], 0)
    dim = len(checked_points(pts[:z] + pts[z + 1 :])[0])
    if len(pts[z]) != dim:
        raise DimensionError(f"point of dim {len(pts[z])} against ambient dim {dim}")
    memo = _star_memo  # read once, so its key and its contents match
    # Tuple equality compares each pair by identity first, so the points of
    # one shadow's map match without hashing or comparing a coordinate.
    if memo is not None and memo[0] == pts:
        hull = memo[1]
    else:
        hull = _hull(pts)
        _check_vertices(hull, z)
    _star_memo = (pts, hull)

    tri = pulling_triangulation(hull, [z] + [i for i in order if i != z])
    if set(itertools.chain.from_iterable(tri.simplices)) != set(range(len(pts))):
        raise ShadowInternalError("star construction failed to use every point")
    return Triangulation(pts, tri.simplices, tri.dim)


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
    projection onto the complement of the spine's span (`shadow_points`),
    the star point table (`star_points`: the origin, then the non-spine
    images in vertex order) and, for each star point, its vertex index
    (`lift_indices`, -1 for the origin), the one table `lift` reads; the
    shadow, the convex hull of the images (`polytope`); and vol(U)^2 of the
    spine simplex (`spine_sq_volume`).

    With A~ the integer spine directions (columns vscale * (u_j - u_0)),
    G = A~^T A~ and w = vscale * (v - u_0), the image of a vertex v is
    (det(G) w - A~ adj(G) (A~^T w)) / (det G vscale), which passes through
    only the k = |U| - 1 entries of A~^T w.  Each image must be orthogonal
    to every spine direction, zero on the spine, and nonzero and distinct
    off it.  vol(U)^2 is det G / (vscale^(2k) (k!)^2), as `gram_sq_volume`
    would give on the spine's points.

    The shadow's vertices come from P's facet masks, with no vertex test.
    Let L be the span of the differences u - u_0 over the spine U and pi
    the projection along L.

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
    origin at position U[0] iff (ii) holds; two vertices with one image are
    rejected above.

    (iii) The shadow's facets come from P's facet masks too.  A face G != P
    of P projects to a face of the shadow iff some functional in the
    relative interior of G's normal cone is constant on U.  Such a
    functional is a strictly positive combination of the normals of the
    facets F that hold G, and each F that misses u_j falls short of its
    offset at u_j by some delta > 0, so it is constant on U iff the weighted
    shortfalls sum to one value at every u_j.  No F misses two points of U,
    so these sums run over disjoint sets of facets, and positive weights
    equalize them iff no F that holds G misses a point of U (G contains U)
    or every point of U is missed by some F that holds G (G misses U).  The
    projection maps these faces one to one onto the shadow's proper faces,
    keeping inclusion, so the shadow's facets are the images of the maximal
    ones among the facets of P that hold U and the nonempty intersections
    F_1 & ... & F_|U| of one facet missing each u_j.  The image of G holds
    the origin iff G contains U, and pi(v), v not in U, iff v is in G; the
    star points' facet bits are these incidences too.
    """

    def __init__(self, sp: Spine):
        p = sp.polytope
        fr = p.frame()
        self.spine = sp
        t = fr.ivertices[sp.indices[0]]
        diffs = [[a - b for a, b in zip(v, t)] for v in fr.ivertices]
        a_cols = [diffs[i] for i in sp.indices[1:]]
        adj, den = int_adjugate([[int_dot(u, w) for w in a_cols] for u in a_cols])
        uset = set(sp.indices)
        inum = []
        seen: dict[tuple, int] = {}
        for i, w in enumerate(diffs):
            at_w = [int_dot(a, w) for a in a_cols]
            y = [int_dot(row, at_w) for row in adj]
            img = tuple(
                den * x - sum(c * a[r] for c, a in zip(y, a_cols))
                for r, x in enumerate(w)
            )
            if any(int_dot(a, img) for a in a_cols):
                raise ShadowInternalError(f"vertex {i} projected off the complement")
            if i in uset:
                if any(img):
                    raise ShadowInternalError("a spine point escaped the kernel")
            elif not any(img):
                raise ShadowInternalError(f"non-spine vertex {i} projected to zero")
            elif seen.setdefault(img, i) != i:
                raise ShadowInternalError(f"vertices {seen[img]} and {i} share a projection")
            inum.append(img)
        scale = den * fr.vscale
        images = tuple(QVector([Fraction(x, scale) for x in w]) for w in inum)
        self.shadow_points = images
        nonspine = [i for i in range(p.n_vertices) if i not in uset]
        self.star_points = (QVector.zero(p.ambient_dim),) + tuple(images[i] for i in nonspine)
        self.lift_indices = (-1,) + tuple(nonspine)
        self.e = p.dim - sp.n + 1
        k = sp.n - 1
        self.spine_sq_volume = Fraction(den, fr.vscale ** (2 * k) * math.factorial(k) ** 2)
        masks = p.incidence_masks()
        u = vertex_mask(sp.indices)
        origin = sp.indices[0] if least_face(masks, u, p.n_vertices) == u else -1
        keep = [i for i in range(p.n_vertices) if i not in uset or i == origin]
        # One point of U at a time, keeping the distinct nonempty partial
        # intersections: the product of the groups grows as |group|^|U|.
        ands = {(1 << p.n_vertices) - 1}
        for j in sp.indices:
            missing = [f for f in masks if not f >> j & 1]
            ands = {a & f for a in ands for f in missing} - {0}
        # Each face holds all of U or none of it, so its bit at U[0] says
        # whether its image holds the origin.
        faces = maximal_masks([f for f in masks if f & u == u] + list(ands))
        self.polytope = _polytope_with_faces(
            [images[i] for i in keep],
            p.ambient_dim,
            [vertex_mask(b for b, i in enumerate(keep) if g >> i & 1) for g in faces],
            self.star_points,
            [
                vertex_mask(j for j, g in enumerate(faces) if g >> i & 1)
                for i in (sp.indices[0], *nonspine)
            ],
        )


def shadow(sp: Spine) -> ShadowMap:
    """The spine's shadow map, built on the first call and kept on the spine,
    so the volume law, fold and lift of one spine share its projection and
    its shadow polytope."""
    if sp._shadow is None:
        object.__setattr__(sp, "_shadow", ShadowMap(sp))
    return sp._shadow


def shadow_polytope(sm: ShadowMap) -> Polytope:
    """The spine's shadow, the convex hull of the projected vertex images
    (the origin included): `sm.polytope`, whose vertex rule `ShadowMap`
    states."""
    return sm.polytope


def fold(t: Triangulation, sm: ShadowMap) -> Triangulation:
    """Project a spinal triangulation: spine vertices collapse to the origin,
    other vertices map to their shadow images; the result is validated
    against the shadow polytope."""
    p = sm.spine.polytope
    if t.points != p.vertices:
        raise TriangulationError("triangulation is not over the spine's polytope")
    uset = set(sm.spine.indices)
    star_of = {g: k for k, g in enumerate(sm.lift_indices) if g >= 0}

    def image(c: Sequence[int]) -> tuple[int, ...]:
        if not uset <= set(c):
            raise TriangulationError("triangulation is not spinal for this spine")
        return tuple(sorted([0] + [star_of[i] for i in c if i not in uset]))

    result = _map_cells(t.simplices, len(t.points), image, sm.star_points, sm.e)
    ok, reason = validate_detailed(result, shadow_polytope(sm))
    if not ok:
        ok, why = validate_detailed(t, p)
        if not ok:
            raise TriangulationError(f"cells are not a triangulation of P: {why}")
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
    if star.dim != sm.e:
        raise TriangulationError(f"dim {star.dim} is not the shadow's dimension {sm.e}")

    def image(c: Sequence[int]) -> tuple[int, ...]:
        lifted = [sm.lift_indices[i] for i in c]
        if lifted.count(-1) != 1:
            raise TriangulationError("star cell must contain the origin exactly once")
        lifted.remove(-1)
        return tuple(sorted([*sm.spine.indices, *lifted]))

    result = _map_cells(star.simplices, len(sm.lift_indices), image, p.vertices, p.dim)
    ok, reason = validate_detailed(result, p)
    if not ok:
        raise TriangulationError(f"lift is not a triangulation of the polytope: {reason}")
    return result


def _map_cells(
    given: Sequence[Sequence[int]], n: int, image: Callable, points: Sequence[QVector], dim: int
) -> Triangulation:
    """The triangulation on points whose cells are the images of the given
    cells, for fold and lift, and the one check of a star file's cells: it
    refuses the first cell with an index outside range(n) before any cell
    is mapped, then a given cell whose image repeats an earlier one's, each
    named as a list, as given."""
    for c in given:
        if any(not 0 <= i < n for i in c):
            bad = next(i for i in c if not 0 <= i < n)
            raise TriangulationError(f"cell {list(c)}: index {bad} is outside 0..{n - 1}")
    cells = [image(c) for c in given]
    made = Triangulation.make(points, cells, dim)
    if made.n_simplices < len(cells):
        i = next(i for i, c in enumerate(cells) if c in cells[:i])
        raise TriangulationError(f"cell {list(given[i])} is given twice")
    return made


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
    coords, scale, on_facet, dets = point_table(p, t.points)
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
