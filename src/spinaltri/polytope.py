"""V-representation polytopes with exact facet enumeration.

Polytopes are stored as ordered vertex lists over Q.  Facets are enumerated
by the double description method in integer arithmetic, on the cone of
inequalities valid for the vertices, so the cost grows with the rays met on
the way rather than with the number of vertex subsets.  Polytopes whose affine
hull is lower-dimensional than the ambient space are handled by switching
to exact coordinates in a basis of the hull first.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    DimensionError, IntRows, QVector, int_adjugate, int_det, int_dot, int_echelon, scaled_ints
)
from .lp import EQ, LE, lp_feasible

DEFAULT_MAX_AMBIENT_DIM = 16
DEFAULT_MAX_VERTICES = 30
ENV_MAX_DIM = "SPINALTRI_MAX_DIM"


class PolytopeError(ValueError):
    """Base class for polytope construction and query failures."""


class DuplicatePoint(PolytopeError):
    def __init__(self, index: int, first: int):
        super().__init__(f"point {index} duplicates point {first}")
        self.index = index
        self.first = first


class NotInConvexPosition(PolytopeError):
    def __init__(self, index: int):
        super().__init__(
            f"point {index} lies in the convex hull of the others; "
            "input must be in convex position"
        )
        self.index = index


def max_ambient_dim() -> int:
    """Desk-scale ambient dimension cap; override via SPINALTRI_MAX_DIM."""
    raw = os.environ.get(ENV_MAX_DIM)
    if not raw:
        return DEFAULT_MAX_AMBIENT_DIM
    if not (raw.isascii() and raw.isdigit()) or int(raw) == 0:
        raise PolytopeError(f"{ENV_MAX_DIM} is {raw!r}, not a positive integer")
    return int(raw)


@dataclass(frozen=True)
class Facet:
    """A facet-defining inequality normal.v <= offset plus its incident set.

    The normal has coprime integer entries, points outward, and lies in the
    direction space of the polytope's affine hull, which makes the canonical
    form unique.
    """

    normal: QVector
    offset: Fraction
    incident: tuple[int, ...]


@dataclass(frozen=True)
class _Frame:
    """A basis of the affine hull of the vertices, held as integers.

    Every rational quantity is an integer tuple times one positive scale.
    ``ivertices`` are the vertices times ``vscale``, the lcm of their
    denominators.  The origin is vertex 0 and the basis B the edges from it
    to the vertices ``basis``, the first maximal affinely independent run,
    so B~ = vscale * B is an integer d x k matrix.  ``icoords`` are the hull
    coordinates c of the vertices (B c = v - v_0) times ``scale``, the lcm
    of their denominators.  A full-dimensional hull (``identity``) uses the
    ambient coordinates themselves, so there ``icoords`` is ``ivertices``.

    A lower-dimensional hull also keeps ``solve``, an integer d x d matrix T
    with T B~ = ``den`` [I_k; 0] (den > 0): the hull coordinates of a point
    are the first k entries of T t, where the other d - k vanish iff the
    point lies in the hull.  ``gram_det`` = det(B^T B).
    """

    dim: int
    identity: bool
    ivertices: tuple[tuple[int, ...], ...]
    vscale: int
    icoords: tuple[tuple[int, ...], ...]
    scale: int
    gram_det: Fraction
    basis: tuple[int, ...]
    solve: tuple[tuple[int, ...], ...] = ()
    den: int = 1


class Polytope:
    """Convex polytope given by its vertices, in convex position."""

    def __init__(self, vertices: Sequence[QVector], ambient_dim: int):
        self.vertices: tuple[QVector, ...] = tuple(vertices)
        self.ambient_dim = ambient_dim
        self._facets: list[Facet] | None = None
        self._planes: list[tuple[tuple[int, ...], int, int]] | None = None
        self._masks: list[int] | None = None
        self._frame: _Frame | None = None
        self._relvol: Fraction | None = None
        # The last points tuple given to point_table and its table.
        self._point_table: tuple | None = None

    def __repr__(self) -> str:
        return f"Polytope({len(self.vertices)} vertices in R^{self.ambient_dim}, dim {self.dim})"

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        return self.frame().dim

    def frame(self) -> _Frame:
        if self._frame is None:
            self._frame = _build_frame(*scaled_ints(self.vertices), self.ambient_dim)
        return self._frame

    def facets(self) -> list[Facet]:
        if self._facets is None:
            self._facets = _enumerate_facets(self)
        return self._facets

    def incidence_masks(self) -> list[int]:
        """The facets' vertex sets as bitmasks: the kept double description's
        zero sets in ray order (_hyperplanes), or on a spine's shadow those
        `ShadowMap` derives from the spine's polytope, in its order (see
        _polytope_with_faces).  Neither pairs with facets() by position."""
        if self._masks is None:
            if self._planes is None:  # perfbench's test_self_time_excludes_nested_spans
                self.facets()  # pins this call (ROADMAP item 10); it runs the DD
            self._masks = [z for *_, z in self._planes]
        return self._masks

    def contains(self, x: QVector) -> bool:
        """Exact membership test: in the affine hull and on the inner side
        of every facet, by the validator's `point_table`."""
        if len(x) != self.ambient_dim:
            raise DimensionError(
                f"point of dim {len(x)} against ambient dim {self.ambient_dim}"
            )
        return type(point_table(self, [x])[2]) is list


def make_polytope(
    points: Sequence[QVector], *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Polytope:
    """Validate convex position and pairwise distinctness, then build.

    Points inside the hull of the others are rejected rather than filtered;
    use extreme_points() for explicit filtering.
    """
    pts = checked_points(points, max_vertices)
    poly = Polytope(pts, len(pts[0]))
    ints = poly.frame().ivertices
    check_distinct(ints)
    if len(ints) > 1:
        for i in range(len(ints)):  # the first, before any later LP
            if _in_convex_hull(ints[i], ints[:i] + ints[i + 1 :]):
                raise NotInConvexPosition(i)
    return poly


def _vertex_polytope(points: Sequence[QVector]) -> Polytope:
    """make_polytope for the library's constructors, whose polytopes all read
    their masks: its checks in order, convex position off _hull's zero sets."""
    poly = _hull(checked_points(points))
    _check_vertices(poly)
    return poly


def _check_vertices(poly: Polytope, exempt: int = -1) -> None:
    """NotInConvexPosition for the first point of poly, other than exempt,
    that is not a vertex: its least face over poly's masks is not its own
    bit."""
    masks, n = poly.incidence_masks(), poly.n_vertices
    for i in range(n):
        if i != exempt and least_face(masks, 1 << i, n) != 1 << i:
            raise NotInConvexPosition(i)


def checked_points(
    points: Sequence[QVector], max_vertices: int = DEFAULT_MAX_VERTICES
) -> list[QVector]:
    """The points as QVectors, after make_polytope's checks on the list: not
    empty, one dimension, and within the ambient-dimension and vertex caps."""
    pts = [p if isinstance(p, QVector) else QVector(p) for p in points]
    if not pts:
        raise PolytopeError("empty point list")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionError("points of mixed dimension")
    if dim > max_ambient_dim():
        raise PolytopeError(
            f"ambient dimension {dim} exceeds the desk-scale cap "
            f"{max_ambient_dim()}; set {ENV_MAX_DIM} to override"
        )
    if len(pts) > max_vertices:
        raise PolytopeError(
            f"{len(pts)} vertices exceed the desk-scale cap {max_vertices}"
        )
    return pts


def check_distinct(ints: Sequence[tuple[int, ...]]) -> None:
    """DuplicatePoint for the first point equal to an earlier one."""
    seen: dict[tuple[int, ...], int] = {}
    for i, p in enumerate(ints):
        if p in seen:
            raise DuplicatePoint(i, seen[p])
        seen[p] = i


def extreme_points(points: Sequence[QVector]) -> list[QVector]:
    """Sublist of points that are vertices of the hull; duplicates collapsed.

    One double description runs on all distinct points in the frame of
    their affine hull; redundant points are allowed (Fukuda and Prodon
    1996).  Point i is a vertex iff least_face(masks, 1 << i, n) is its own
    bit.  That costs one facet enumeration of the hull and no LP, cheap at
    desk scale in dimensions 2 to 4 but far slower than one LP per point on
    many points in high dimension.
    """
    pts = [p if isinstance(p, QVector) else QVector(p) for p in points]
    unique: list[QVector] = []
    seen: set[tuple[int, ...]] = set()
    for p, key in zip(pts, scaled_ints(pts)[0]):
        if key not in seen:
            seen.add(key)
            unique.append(p)
    if any(len(p) != len(unique[0]) for p in unique):
        raise DimensionError("points of mixed dimension")
    if len(unique) < 2:
        return unique
    masks = _hull(unique).incidence_masks()
    n = len(unique)
    return [p for i, p in enumerate(unique) if least_face(masks, 1 << i, n) == 1 << i]


def least_face(masks: Iterable[int], face: int, n: int) -> int:
    """The smallest face of the hull of n points that holds the point set
    ``face``: the AND of the facet zero sets (bitmasks) that contain it, or
    the full mask if none does.  Point i is a vertex iff this is its own bit,
    and a set of points spans a face iff this is the set itself."""
    least = (1 << n) - 1
    for m in masks:
        if m & face == face:
            least &= m
    return least


def _hull(points: Sequence[QVector]) -> Polytope:
    """The polytope on the points, which may be redundant, with its double
    description run and kept (_hyperplanes), so its masks are the zero sets
    and no normal is lifted; DuplicatePoint first if two points are equal."""
    poly = Polytope(points, len(points[0]))
    check_distinct(poly.frame().ivertices)
    _hyperplanes(poly)
    return poly


def _hyperplanes(p: Polytope) -> list[tuple[tuple[int, ...], int, int]]:
    """p's facet hyperplanes (a, b, zero set), a . c <= b on the frame's
    `icoords` c, in ray order: one double description, run on the first
    call and kept on p.  A point is its own affine hull, so it has none."""
    if p._planes is None:
        fr = p.frame()
        p._planes = _supporting_hyperplanes(fr.icoords, fr.dim, (0, *fr.basis)) if fr.dim else []
    return p._planes


def _polytope_with_faces(
    vertices: Sequence[QVector], ivertices: IntRows, vscale: int, masks: list[int],
    points: tuple[QVector, ...], ipoints: IntRows, on_facet: list[int],
) -> Polytope:
    """The polytope on the vertices whose facets' vertex sets are masks, as
    a caller knows them without a double description, with the point table
    of the points tuple already in place: their hull coordinates, placed by
    hull_ints, and on_facet, bit j of point i set iff point i lies on the
    facet of masks[j].  The frame and the hull coordinates come from the
    vertices and points times vscale, ivertices and ipoints, as scaled_ints
    gives the vertices.  The points must lie in the polytope; facets() or
    placing other points runs the double description, in its own order."""
    poly = Polytope(vertices, len(ivertices[0]))
    poly._frame = _build_frame(ivertices, vscale, poly.ambient_dim)
    poly._masks = masks
    coords, scale = hull_ints(poly._frame, ipoints, vscale)
    poly._point_table = (points, (coords, scale, on_facet, {}))
    return poly


def vertex_mask(indices: Iterable[int]) -> int:
    """The vertex index set as an int bitmask."""
    return sum(1 << i for i in indices)


def facets_of_face(face: int, facet_masks: Sequence[int]) -> list[int]:
    """Facets of a face of P as vertex bitmasks: the inclusion-maximal
    nonempty proper sets face & g over the facets g of P (Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", Comput. Geom. 2002).  facet_masks may be the facets of any
    face E of P that contains `face`, P itself included: every face of
    `face` is a face of E, cut out by E's facets alone (the diamond
    property; Ziegler, Lectures on Polytopes, Thm 2.7).

    The distinct candidates are visited by popcount, largest first, and one
    is kept unless it lies in a kept one: a candidate that is not maximal
    lies in a maximal one with more bits, which comes earlier and is kept.
    That is O(c * f) for c candidates and f facets of the face.  The facets
    come in that order, not sorted.
    """
    return maximal_masks({face & g for g in facet_masks} - {face, 0})


def maximal_masks(cands: Iterable[int]) -> list[int]:
    """The inclusion-maximal sets among the bitmasks cands, each once, by
    popcount, largest first (see facets_of_face); a repeat lies in its
    first copy, so it is dropped as any other set in a kept one is."""
    kept: list[int] = []
    for c in sorted(cands, key=int.bit_count, reverse=True):
        for k in kept:
            if c & k == c:
                break
        else:
            kept.append(c)
    return kept


def _in_convex_hull(x: Sequence[int], hull_points: Sequence[Sequence[int]]) -> bool:
    """Whether the integer point x is a convex combination of hull_points,
    by one LP call on the weights: n sign rows -w_i <= 0, the sum row, then
    one row per coordinate, in that order.  The perfbench tracer pins this
    layout (4 calls of 6 rows each for a square), so keep one call per
    tested point and every row."""
    n = len(hull_points)
    constraints = []
    for i in range(n):
        coeff = [0] * n
        coeff[i] = -1
        constraints.append((coeff, 0, LE))  # lambda_i >= 0
    constraints.append(([1] * n, 1, EQ))  # sum = 1
    for c in range(len(x)):
        constraints.append(([p[c] for p in hull_points], x[c], EQ))
    return lp_feasible(constraints)


def point_table(p: Polytope, points: Sequence[QVector]) -> tuple:
    """(coords, scale, on_facet, dets) of points against p: their hull
    coordinates as integers at one scale, for each point the bitmask of the
    facets that hold it (p's masks for its vertices, else facet_masks), and
    a dict from each sorted cell validated on them to its `cell_det` on
    coords, filled by validate_detailed.  A failure is kept as its reason in
    place of what it stops: a point off the affine hull replaces coords, a
    point beyond a facet replaces on_facet.

    p keeps the table of the last points tuple it was given and hands it back
    while the same tuple object comes again, so the folds of one shadow,
    which all share the map's `star_points`, build it once, and the lifts
    and folds of its stars share their cells' determinants.  A list is never
    kept, so a membership query does not evict that table."""
    memo = p._point_table
    if memo is not None and memo[0] is points:
        return memo[1]
    fr = p.frame()
    if points is p.vertices:
        masks = p.incidence_masks()
        on_facet = [
            vertex_mask(j for j, m in enumerate(masks) if m >> i & 1) for i in range(len(points))
        ]
        table = (fr.icoords, fr.scale, on_facet)
    else:
        amb, q = scaled_ints(points)
        try:
            coords, scale = hull_ints(fr, amb, q)
        except PolytopeError:
            table = ("a point lies outside the affine hull of the polytope", None, None)
        else:
            try:
                on_facet = facet_masks(p, coords, scale)
            except PolytopeError as exc:
                on_facet = str(exc)
            table = (coords, scale, on_facet)
    table += ({},)
    if type(points) is tuple:  # a list could change under the same identity
        p._point_table = (points, table)
    return table


def cell_det(icoords: Sequence[Sequence[int]], cell: Sequence[int]) -> int:
    """Signed determinant of the edge vectors from a cell's first vertex,
    on integer coordinates."""
    base = icoords[cell[0]]
    return int_det([[a - b for a, b in zip(icoords[i], base)] for i in cell[1:]])


def facet_masks(p: Polytope, coords: Sequence[Sequence[int]], q: int) -> list[int]:
    """For each point c / q of hull coordinates (q > 0), the bitmask of p's
    kept hyperplanes that hold it, each a . c <= b / scale cross-multiplied
    on int; PolytopeError naming the first point beyond one."""
    s = p.frame().scale
    masks = []
    for i, c in enumerate(coords):
        mask = 0
        for j, (a, b, _) in enumerate(_hyperplanes(p)):
            side = int_dot(a, c) * s - b * q
            if side > 0:
                raise PolytopeError(f"point {i} lies outside the polytope")
            if side == 0:
                mask |= 1 << j
        masks.append(mask)
    return masks


def hull_ints(
    fr: _Frame, amb: Sequence[tuple[int, ...]], q: int
) -> tuple[Sequence[tuple[int, ...]], int]:
    """Hull coordinates of the ambient points amb / q, times one positive
    scale, and the scale; PolytopeError if a point is off the affine hull."""
    if fr.identity:
        return amb, q
    s, origin, k = fr.vscale, fr.ivertices[0], fr.dim
    out = []
    for a in amb:
        # t = vscale * q * (point - origin), so T t = den * q * (c, 0).
        t = [s * x - q * o for x, o in zip(a, origin)]
        u = [int_dot(row, t) for row in fr.solve]
        if any(u[k:]):
            raise PolytopeError("point outside the affine hull")
        out.append(tuple(u[:k]))
    return out, fr.den * q


def _build_frame(ivertices: IntRows, vscale: int, ambient_dim: int) -> _Frame:
    """The frame of the vertices ivertices / vscale, as scaled_ints gives
    them.  One fraction-free echelon of [E | I], E the d x (n - 1) integer
    edges from vertex 0 as columns.  Its pivot columns in E are the greedy
    basis.  With p its last pivot, the column of vertex i in E ends as
    p (c_i, 0), c_i the hull coordinates, and the identity block as T' with
    T' B~ = p [I_k; 0], which ``solve`` keeps times sign(p)."""
    m = len(ivertices) - 1
    rows = [
        [v[r] - o for v in ivertices[1:]] + [int(r == j) for j in range(ambient_dim)]
        for r, o in enumerate(ivertices[0])
    ]
    ech, pivots, _, den = int_echelon(rows)
    lead = [c for c in pivots if c < m]
    k = len(lead)
    basis = tuple(c + 1 for c in lead)
    if k == ambient_dim:
        return _Frame(k, True, ivertices, vscale, ivertices, vscale, Fraction(1), basis)
    sign = 1 if den > 0 else -1
    g = sign * math.gcd(den, *(x for row in ech[:k] for x in row[:m]))
    icoords = ((0,) * k,) + tuple(tuple(r[c] // g for r in ech[:k]) for c in range(m))
    bt = [[row[c] for row in rows] for c in lead]  # the rows of B~^T
    return _Frame(
        k,
        False,
        ivertices,
        vscale,
        icoords,
        den // g,
        Fraction(int_det([[int_dot(a, b) for b in bt] for a in bt]), vscale ** (2 * k)),
        basis,
        tuple(tuple(sign * x for x in row[m:]) for row in ech),
        abs(den),
    )


def frame_coords(p: Polytope, point: QVector) -> QVector:
    """Coordinates of an ambient point in p's hull frame (must lie in the hull)."""
    fr = p.frame()
    if fr.identity:
        return point
    amb, q = scaled_ints([point])
    (u,), scale = hull_ints(fr, amb, q)
    return QVector([Fraction(x, scale) for x in u])


def _enumerate_facets(p: Polytope) -> list[Facet]:
    """The canonical facets, sorted, lifted from p's kept double description
    (_hyperplanes), so a point has none.

    A lower-dimensional hull's normals g, in hull coordinates, are lifted
    to R^d by the normal map B~ adj(B~^T B~), formed once per call.  The
    double description orients every normal outward, and B G^-1 keeps that
    orientation (n.(v - v_0) = g.c for the lifted n), so the canonical
    normal is the primitive vector along the lifted one; the offset is its
    value at an incident vertex.
    """
    fr = p.frame()
    if not fr.identity:
        bt = [[a - b for a, b in zip(fr.ivertices[i], fr.ivertices[0])] for i in fr.basis]
        adj, _ = int_adjugate([[int_dot(a, b) for b in bt] for a in bt])
        normal_map = [[int_dot(row, col) for col in zip(*adj)] for row in zip(*bt)]
    keyed = []
    n = len(fr.ivertices)
    for normal_ints, _, mask in _hyperplanes(p):
        incident = tuple(i for i in range(n) if mask >> i & 1)
        ints = normal_ints
        if not fr.identity:
            ints = [int_dot(row, normal_ints) for row in normal_map]
            g = math.gcd(*ints)
            ints = tuple(v // g for v in ints)
        offset = Fraction(int_dot(ints, fr.ivertices[incident[0]]), fr.vscale)
        keyed.append(((ints, offset), Facet(QVector(ints), offset, incident)))
    # The normals are integral, so their int tuples order as the entries do.
    keyed.sort(key=lambda kf: kf[0])
    return [f for _, f in keyed]


def _supporting_hyperplanes(
    pts: list[tuple[int, ...]], k: int, start: Sequence[int]
) -> list[tuple[tuple[int, ...], int, int]]:
    """All facet hyperplanes of a dim-k integer point set in Z^k.

    Returns (normal, offset, incident_mask) triples with normal.p <= offset
    for every point and a primitive normal.  Double description method
    (Fukuda and Prodon, "Double description method revisited", 1996) on the
    cone of y = (a, b) with b - a.p >= 0 for every point p, whose extreme
    rays are the facets.  It starts from the simplicial cone of the k + 1
    affinely independent points ``start``: with H the rows (-p, 1) of
    those points, its rays are the columns of H^-1, taken as the primitive
    columns of sign(det H) adj(H), and ray i is zero on every start row but
    row i.  The other points are inserted in input order.  Rays are
    gcd-normalised integer tuples with their zero sets as bitmasks over the
    points; b = a.p at an incident point, so the normal of a ray is
    primitive too.  Two rays are adjacent iff they share at least k - 1
    zeros and no third ray's zero set contains the shared ones.
    """
    rows = [(*(-c for c in p), 1) for p in pts]
    adj, det_h = int_adjugate([rows[i] for i in start])
    start_mask = vertex_mask(start)
    rays = []
    for i, col in zip(start, zip(*adj)):
        g = math.gcd(*col) if det_h > 0 else -math.gcd(*col)
        rays.append((tuple(x // g for x in col), start_mask & ~(1 << i)))
    rest = [i for i in range(len(pts)) if not start_mask >> i & 1]
    for i in rest:
        h, bit = rows[i], 1 << i
        pos, neg, new = [], [], []
        for r, z in rays:
            s = int_dot(h, r)
            if s > 0:
                pos.append((r, z, s))
                new.append((r, z))
            elif s < 0:
                neg.append((r, z, s))
            else:
                new.append((r, z | bit))
        masks = [z for _, z in rays]
        for rp, zp, sp in pos:
            for rm, zm, sm in neg:
                common = zp & zm
                if common.bit_count() < k - 1 or any(
                    z & common == common and z != zp and z != zm for z in masks
                ):
                    continue
                new.append((_combine(sp, rm, sm, rp), common | bit))
        rays = new
    return [(r[:k], r[k], z) for r, z in rays]


def _combine(c: int, u: Sequence[int], e: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector along c*u - e*v."""
    w = [c * a - e * b for a, b in zip(u, v)]
    g = math.gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)
