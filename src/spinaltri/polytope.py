"""V-representation polytopes with exact facet enumeration.

Polytopes are stored as ordered vertex lists over Q.  Facets are enumerated
by the double description method in integer arithmetic, on the cone of
inequalities valid for the vertices, so the cost grows with the rays met on
the way rather than with the number of vertex subsets.  Polytopes whose affine
hull is lower-dimensional than the ambient space are handled by switching
to exact coordinates in a basis of the hull first.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .linalg import DimensionError, QVector, int_adjugate, int_dot, scaled_ints
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


class DegeneratePolytope(PolytopeError):
    pass


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
    to the first maximal affinely independent run of vertices, so B~ =
    vscale * B is an integer d x k matrix; ``ibasis`` holds its rows.
    ``icoords`` are the hull coordinates c of the vertices (B c = v - v_0)
    times ``scale``, the lcm of their denominators.  A full-dimensional hull
    (``identity``) uses the ambient coordinates themselves, so there
    ``icoords`` is ``ivertices``.

    A lower-dimensional hull also keeps ``lead``, the k ambient rows at the
    leads of the echelon that found the basis, where B~ is invertible, with
    ``lead_adj`` / ``lead_det`` (> 0) the inverse of those rows: the hull
    coordinates of a point are one integer solve on its lead entries plus an
    integer check of the other rows.  ``normal_map`` = B~ adj(B~^T B~) sends
    a normal in hull coordinates to a positive multiple of the ambient normal
    that lies in the direction space.  ``gram_det`` = det(B^T B) and
    ``coords`` are the same data over Q.
    """

    dim: int
    identity: bool
    ivertices: tuple[tuple[int, ...], ...]
    vscale: int
    icoords: tuple[tuple[int, ...], ...]
    scale: int
    gram_det: Fraction
    ibasis: tuple[tuple[int, ...], ...] = ()
    lead: tuple[int, ...] = ()
    lead_adj: tuple[tuple[int, ...], ...] = ()
    lead_det: int = 1
    normal_map: tuple[tuple[int, ...], ...] = ()

    @property
    def coords(self) -> tuple[QVector, ...]:
        return tuple(
            QVector([Fraction(x, self.scale) for x in q]) for q in self.icoords
        )


class Polytope:
    """Convex polytope given by its vertices, in convex position."""

    def __init__(self, vertices: Sequence[QVector], ambient_dim: int):
        self.vertices: tuple[QVector, ...] = tuple(vertices)
        self.ambient_dim = ambient_dim
        self._dim: int | None = None
        self._facets: list[Facet] | None = None
        self._masks: list[int] | None = None
        self._frame: _Frame | None = None
        self._relvol: Fraction | None = None

    def __repr__(self) -> str:
        return f"Polytope({len(self.vertices)} vertices in R^{self.ambient_dim}, dim {self.dim})"

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        if self._dim is None:
            self._dim = self.frame().dim
        return self._dim

    def frame(self) -> _Frame:
        if self._frame is None:
            self._frame = _build_frame(self.vertices, self.ambient_dim)
        return self._frame

    def facets(self) -> list[Facet]:
        if self._facets is None:
            self._facets = _enumerate_facets(self)
        return self._facets

    def incidence_masks(self) -> list[int]:
        """The facets' vertex sets as bitmasks, in facet order; none for a
        single point."""
        if self._masks is None:
            self._masks = (
                [vertex_mask(f.incident) for f in self.facets()]
                if self.n_vertices > 1
                else []
            )
        return self._masks

    def contains(self, x: QVector) -> bool:
        """Exact membership test: in the affine hull and on the inner side
        of every facet, both on integers as in the validator."""
        if len(x) != self.ambient_dim:
            raise DimensionError(
                f"point of dim {len(x)} against ambient dim {self.ambient_dim}"
            )
        if self.n_vertices == 1:
            return x == self.vertices[0]
        amb, q = scaled_ints([x])
        try:
            hull_ints(self.frame(), amb, q)
            facet_masks(self.facets(), amb, q)
        except PolytopeError:
            return False
        return True


def make_polytope(
    points: Sequence[QVector], *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> Polytope:
    """Validate convex position and pairwise distinctness, then build.

    Points inside the hull of the others are rejected rather than filtered;
    use extreme_points() for explicit filtering.
    """
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
    poly = Polytope(pts, dim)
    ints = poly.frame().ivertices
    seen: dict[tuple[int, ...], int] = {}
    for i, p in enumerate(ints):
        if p in seen:
            raise DuplicatePoint(i, seen[p])
        seen[p] = i
    for i in _inside_points(ints):
        raise NotInConvexPosition(i)  # the first, before any later LP
    return poly


def extreme_points(points: Sequence[QVector]) -> list[QVector]:
    """Sublist of points that are vertices of the hull; duplicates collapsed."""
    pts = [p if isinstance(p, QVector) else QVector(p) for p in points]
    unique: list[QVector] = []
    ints: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for p, key in zip(pts, scaled_ints(pts)[0]):
        if key not in seen:
            seen.add(key)
            unique.append(p)
            ints.append(key)
    if any(len(p) != len(unique[0]) for p in unique):
        raise DimensionError("points of mixed dimension")
    inside = set(_inside_points(ints))
    return [p for i, p in enumerate(unique) if i not in inside]


def vertex_mask(indices: Iterable[int]) -> int:
    """The vertex index set as an int bitmask."""
    return sum(1 << i for i in indices)


def facets_of_face(face: int, facet_masks: Sequence[int]) -> list[int]:
    """Facets of a face of P as vertex bitmasks: the inclusion-maximal
    nonempty proper sets face & g over the facets g of P (Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", Comput. Geom. 2002).

    The distinct candidates are visited by popcount, largest first, and one
    is kept unless it lies in a kept one: a candidate that is not maximal
    lies in a maximal one with more bits, which comes earlier and is kept.
    That is O(c * f) for c candidates and f facets of the face.  The facets
    come in that order, not sorted.
    """
    cands = sorted(
        {face & g for g in facet_masks} - {face, 0}, key=int.bit_count, reverse=True
    )
    kept: list[int] = []
    for c in cands:
        for k in kept:
            if c & k == c:
                break
        else:
            kept.append(c)
    return kept


def _inside_points(ints: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """The indices i, in order, of the integer points that lie in the convex
    hull of the others, one LP each; none for a single point."""
    if len(ints) > 1:
        for i in range(len(ints)):
            if _in_convex_hull(ints[i], ints[:i] + ints[i + 1 :]):
                yield i


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


def facet_masks(
    facets: Sequence[Facet], amb: Sequence[Sequence[int]], q: int
) -> list[int]:
    """For each ambient point a / q of amb (q > 0), the bitmask of the facets
    whose hyperplane holds it; PolytopeError naming the first point beyond a
    facet.  Each normal . x <= offset is tested cross-multiplied, on int."""
    planes = [
        ([x.numerator for x in f.normal], f.offset.numerator, f.offset.denominator)
        for f in facets
    ]
    masks = []
    for i, a in enumerate(amb):
        mask = 0
        for j, (normal, num, den) in enumerate(planes):
            side = int_dot(normal, a) * den - num * q
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
    s, origin, lead, det_l = fr.vscale, fr.ivertices[0], fr.lead, fr.lead_det
    out = []
    for a in amb:
        # t = vscale * q * (point - origin), so B~ c = t / q.
        t = [s * x - q * o for x, o in zip(a, origin)]
        t_lead = [t[r] for r in lead]
        u = tuple(int_dot(row, t_lead) for row in fr.lead_adj)
        if any(int_dot(row, u) != det_l * x for row, x in zip(fr.ibasis, t)):
            raise PolytopeError("point outside the affine hull")
        out.append(u)
    return out, det_l * q


def _build_frame(vertices: tuple[QVector, ...], ambient_dim: int) -> _Frame:
    ivertices, vscale = scaled_ints(vertices)
    origin = ivertices[0]
    edges = [[a - o for a, o in zip(v, origin)] for v in ivertices]
    # Greedy: scan edge vectors from vertices[0] for a maximal independent set.
    echelon: list[tuple[int, list[int]]] = []
    chosen: list[int] = []
    for i in range(1, len(edges)):
        if len(chosen) == ambient_dim:
            break
        red = _reduce_against(edges[i], echelon)
        if red is not None:
            echelon.append(red)
            chosen.append(i)
    k = len(chosen)
    if k == ambient_dim:
        return _Frame(k, True, ivertices, vscale, ivertices, vscale, Fraction(1))
    ibasis = tuple(tuple(edges[i][r] for i in chosen) for r in range(ambient_dim))
    lead = tuple(lead for lead, _ in echelon)
    lead_adj, lead_det = int_adjugate([ibasis[r] for r in lead])
    if lead_det < 0:
        lead_adj, lead_det = [[-x for x in row] for row in lead_adj], -lead_det
    gram_adj, gram_det = int_adjugate(
        [[int_dot(a, b) for b in zip(*ibasis)] for a in zip(*ibasis)]
    )
    fr = _Frame(
        k,
        False,
        ivertices,
        vscale,
        (),
        1,
        Fraction(gram_det, vscale ** (2 * k)),
        ibasis,
        lead,
        tuple(map(tuple, lead_adj)),
        lead_det,
        tuple(tuple(int_dot(row, col) for col in zip(*gram_adj)) for row in ibasis),
    )
    # Consistency: every vertex must lie in the affine hull of the basis.
    raw, scale = hull_ints(fr, ivertices, vscale)
    g = math.gcd(scale, *(x for u in raw for x in u))
    icoords = tuple(tuple(x // g for x in u) for u in raw)
    return dataclasses.replace(fr, icoords=icoords, scale=scale // g)


def _reduce_against(
    vec: list[int], echelon: list[tuple[int, list[int]]]
) -> tuple[int, list[int]] | None:
    """Reduce an integer row by the (lead, row) echelon rows, fraction-free;
    return its lead and primitive reduced row, or None if it is dependent."""
    v = vec
    for lead, row in echelon:
        f = v[lead]
        if f:
            p = row[lead]
            v = [a * p - f * b for a, b in zip(v, row)]
    g = math.gcd(*v)
    if g == 0:
        return None
    v = [a // g for a in v]
    return next(i for i, a in enumerate(v) if a), v


def frame_coords(p: Polytope, point: QVector) -> QVector:
    """Coordinates of an ambient point in p's hull frame (must lie in the hull)."""
    fr = p.frame()
    if fr.identity:
        return point
    amb, q = scaled_ints([point])
    (u,), scale = hull_ints(fr, amb, q)
    return QVector([Fraction(x, scale) for x in u])


def _enumerate_facets(p: Polytope) -> list[Facet]:
    k = p.dim
    if k == 0:
        raise DegeneratePolytope("a single point has no facets")
    fr = p.frame()
    raw = _supporting_hyperplanes(fr.icoords, k)
    keyed = []
    n = len(p.vertices)
    for normal_ints, _, mask in raw:
        incident = tuple(i for i in range(n) if mask >> i & 1)
        ints, offset = _lift_normal(fr, normal_ints, incident)
        keyed.append(((ints, offset), Facet(QVector(ints), offset, incident)))
    # The normals are integral, so their int tuples order as the entries do.
    keyed.sort(key=lambda kf: kf[0])
    return [f for _, f in keyed]


def _lift_normal(
    fr: _Frame, normal_ints: Sequence[int], incident: tuple[int, ...]
) -> tuple[tuple[int, ...], Fraction]:
    """Turn a hull-coordinate hyperplane into canonical ambient form: the
    integer normal and the offset.

    The double description orients every normal outward, and B G^-1 keeps
    that orientation (n.(v - v_0) = g.c for the lifted n), so the canonical
    normal is the primitive vector along normal_map . g.
    """
    if fr.identity:
        ints = list(normal_ints)
    else:
        ints = [int_dot(row, normal_ints) for row in fr.normal_map]
    g = math.gcd(*ints)
    ints = tuple(v // g for v in ints)
    offset = Fraction(int_dot(ints, fr.ivertices[incident[0]]), fr.vscale)
    return ints, offset


def _supporting_hyperplanes(
    pts: list[tuple[int, ...]], k: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """All facet hyperplanes of a dim-k integer point set in Z^k.

    Returns (normal, offset, incident_mask) triples with normal.p <= offset
    for every point and a primitive normal.  Double description method
    (Fukuda and Prodon, "Double description method revisited", 1996) on the
    cone of y = (a, b) with b - a.p >= 0 for every point p, whose extreme
    rays are the facets.  Rays are gcd-normalised integer tuples with their
    zero sets as bitmasks over the points; b = a.p at an incident point, so
    the normal of a ray is primitive too.  Two rays are adjacent iff they
    share at least k - 1 zeros and no third ray's zero set contains the
    shared ones.
    """
    rows = [(*(-c for c in p), 1) for p in pts]
    # Start: the simplicial cone of the first k + 1 affinely independent
    # points, by fraction-free elimination against a lineality basis.
    lineal = [tuple(int(i == j) for j in range(k + 1)) for i in range(k + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []
    start_mask = 0
    rest: list[int] = []
    for i, h in enumerate(rows):
        dots = [int_dot(h, l) for l in lineal]
        j = next((j for j, d in enumerate(dots) if d), None)
        if j is None:
            rest.append(i)
            continue
        l0, d0 = lineal.pop(j), dots.pop(j)
        if d0 < 0:
            l0, d0 = tuple(-b for b in l0), -d0
        rays = [(_combine(d0, r, int_dot(h, r), l0), z | 1 << i) for r, z in rays]
        rays.append((l0, start_mask))
        start_mask |= 1 << i
        lineal = [_combine(d0, l, d, l0) for l, d in zip(lineal, dots)]
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
