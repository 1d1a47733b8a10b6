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
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (
    DimensionError,
    QMatrix,
    QVector,
    det,
    inverse,
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


class DegeneratePolytope(PolytopeError):
    pass


def max_ambient_dim() -> int:
    """Desk-scale ambient dimension cap; override via SPINALTRI_MAX_DIM."""
    raw = os.environ.get(ENV_MAX_DIM)
    if raw:
        return int(raw)
    return DEFAULT_MAX_AMBIENT_DIM


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
    """Exact coordinates of the vertices in a basis of the affine hull."""

    dim: int
    origin: QVector
    basis: tuple[QVector, ...]
    coords: tuple[QVector, ...]
    gram_det: Fraction
    identity: bool
    bmat: QMatrix | None = None
    gram_inv: QMatrix | None = None


class Polytope:
    """Convex polytope given by its vertices, in convex position."""

    def __init__(self, vertices: Sequence[QVector], ambient_dim: int):
        self.vertices: tuple[QVector, ...] = tuple(vertices)
        self.ambient_dim = ambient_dim
        self._dim: int | None = None
        self._facets: list[Facet] | None = None
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

    def contains(self, x: QVector) -> bool:
        """Exact membership test: in the affine hull and on the inner side
        of every facet."""
        if len(x) != self.ambient_dim:
            raise DimensionError(
                f"point of dim {len(x)} against ambient dim {self.ambient_dim}"
            )
        if self.n_vertices == 1:
            return x == self.vertices[0]
        try:
            frame_coords(self, x)
        except PolytopeError:
            return False
        return all(f.normal.dot(x) <= f.offset for f in self.facets())


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
    seen: dict[tuple, int] = {}
    for i, p in enumerate(pts):
        if p.entries in seen:
            raise DuplicatePoint(i, seen[p.entries])
        seen[p.entries] = i
    for i in range(len(pts)):
        if len(pts) > 1 and _in_convex_hull(pts[i], pts[:i] + pts[i + 1 :]):
            raise NotInConvexPosition(i)
    return Polytope(pts, dim)


def extreme_points(points: Sequence[QVector]) -> list[QVector]:
    """Sublist of points that are vertices of the hull; duplicates collapsed."""
    pts = [p if isinstance(p, QVector) else QVector(p) for p in points]
    unique: list[QVector] = []
    seen: set[tuple] = set()
    for p in pts:
        if p.entries not in seen:
            seen.add(p.entries)
            unique.append(p)
    if len(unique) <= 1:
        return unique
    keep = []
    for i, p in enumerate(unique):
        if not _in_convex_hull(p, unique[:i] + unique[i + 1 :]):
            keep.append(p)
    return keep


def vertex_mask(indices: Iterable[int]) -> int:
    """The vertex index set as an int bitmask."""
    return sum(1 << i for i in indices)


def facets_of_face(face: int, facet_masks: Sequence[int]) -> list[int]:
    """Facets of a face of P as vertex bitmasks: the inclusion-maximal
    nonempty proper sets face & g over the facets g of P (Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", Comput. Geom. 2002)."""
    cands = {face & g for g in facet_masks} - {face, 0}
    return [c for c in cands if not any(c & o == c and c != o for o in cands)]


def _in_convex_hull(x: QVector, hull_points: Sequence[QVector]) -> bool:
    if not hull_points:
        return False
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


def _build_frame(vertices: tuple[QVector, ...], ambient_dim: int) -> _Frame:
    if len(vertices) == 1:
        return _Frame(0, vertices[0], (), (QVector([]),), Fraction(1), False)
    # Greedy: scan edge vectors from vertices[0] for a maximal independent set.
    origin = vertices[0]
    basis: list[QVector] = []
    echelon: list[list[Fraction]] = []
    for v in vertices[1:]:
        e = v - origin
        red = _reduce_against(list(e.entries), echelon)
        if red is not None:
            echelon.append(red)
            basis.append(e)
        if len(basis) == ambient_dim:
            break
    k = len(basis)
    if k == ambient_dim:
        return _Frame(
            k, QVector.zero(ambient_dim), tuple(basis), vertices, Fraction(1), True
        )
    bmat = QMatrix.from_cols(basis, dim=ambient_dim)
    gram = bmat.transpose() @ bmat
    gram_inv = inverse(gram)
    gram_det = det(gram)
    coords = []
    for v in vertices:
        rhs = bmat.transpose() @ (v - origin)
        c = gram_inv @ rhs
        # Consistency: v must lie in the affine hull of the chosen basis.
        if bmat @ c != v - origin:
            raise PolytopeError("point outside the affine hull of the basis")
        coords.append(c)
    return _Frame(
        k, origin, tuple(basis), tuple(coords), gram_det, False, bmat, gram_inv
    )


def _reduce_against(
    vec: list[Fraction], echelon: list[list[Fraction]]
) -> list[Fraction] | None:
    """Reduce vec by echelon rows; return the reduced row or None if dependent."""
    v = list(vec)
    for row in echelon:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead] / row[lead]
            v = [a - f * b for a, b in zip(v, row)]
    if all(x == 0 for x in v):
        return None
    return v


def frame_coords(p: Polytope, point: QVector) -> QVector:
    """Coordinates of an ambient point in p's hull frame (must lie in the hull)."""
    fr = p.frame()
    if fr.identity:
        return point
    if not fr.basis:
        if point != fr.origin:
            raise PolytopeError("point outside the affine hull")
        return QVector([])
    c = fr.gram_inv @ (fr.bmat.transpose() @ (point - fr.origin))
    if fr.bmat @ c != point - fr.origin:
        raise PolytopeError("point outside the affine hull")
    return c


def _scaled_int_coords(coords: Sequence[QVector]) -> list[tuple[int, ...]]:
    denoms = [x.denominator for q in coords for x in q]
    mult = math.lcm(*denoms) if denoms else 1
    return [tuple(int(x * mult) for x in q) for q in coords]


def _enumerate_facets(p: Polytope) -> list[Facet]:
    k = p.dim
    if k == 0:
        raise DegeneratePolytope("a single point has no facets")
    fr = p.frame()
    int_pts = _scaled_int_coords(fr.coords)
    raw = _supporting_hyperplanes(int_pts, k)
    facets = []
    n = len(p.vertices)
    for normal_ints, offset_int, mask in raw:
        incident = tuple(i for i in range(n) if mask >> i & 1)
        normal_amb, offset = _lift_normal(p, fr, normal_ints, offset_int, incident)
        facets.append(Facet(normal_amb, offset, incident))
    facets.sort(key=lambda f: (f.normal.entries, f.offset))
    return facets


def _lift_normal(
    p: Polytope,
    fr: _Frame,
    normal_ints: Sequence[int],
    offset_int: int,
    incident: tuple[int, ...],
) -> tuple[QVector, Fraction]:
    """Turn a hull-coordinate hyperplane into canonical ambient form."""
    if fr.identity:
        n_amb = QVector(normal_ints)
        # Undo the integer scaling of the coordinates via any incident vertex.
        offset = n_amb.dot(p.vertices[incident[0]])
    else:
        g = QVector(normal_ints)
        n_amb = fr.bmat @ (fr.gram_inv @ g)
        offset = n_amb.dot(p.vertices[incident[0]])
    mult = math.lcm(*(x.denominator for x in n_amb))
    ints = [int(x * mult) for x in n_amb]
    g0 = math.gcd(*(abs(v) for v in ints))
    ints = [v // g0 for v in ints]
    normal = QVector(ints)
    offset = offset * mult / g0
    # Outward orientation: every vertex satisfies normal.v <= offset.
    if any(normal.dot(v) > offset for v in p.vertices):
        normal = -normal
        offset = -offset
    return normal, offset


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
        dots = [_idot(h, l) for l in lineal]
        j = next((j for j, d in enumerate(dots) if d), None)
        if j is None:
            rest.append(i)
            continue
        l0, d0 = lineal.pop(j), dots.pop(j)
        if d0 < 0:
            l0, d0 = tuple(-b for b in l0), -d0
        rays = [(_combine(d0, r, _idot(h, r), l0), z | 1 << i) for r, z in rays]
        rays.append((l0, start_mask))
        start_mask |= 1 << i
        lineal = [_combine(d0, l, d, l0) for l, d in zip(lineal, dots)]
    for i in rest:
        h, bit = rows[i], 1 << i
        pos, neg, new = [], [], []
        for r, z in rays:
            s = _idot(h, r)
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


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _combine(c: int, u: Sequence[int], e: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector along c*u - e*v."""
    w = [c * a - e * b for a, b in zip(u, v)]
    g = math.gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)
