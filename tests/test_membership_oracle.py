"""Cross-check the integer membership tests against their Fraction predecessors.

The library's former code is kept here verbatim as the oracle:

- `lp_oracle.fraction_in_convex_hull`: the former `polytope._in_convex_hull`,
  which hands the general LP oracle the points' `Fraction` coordinates;
- `fraction_make_polytope` and `fraction_extreme_points`: the former
  `make_polytope` and `extreme_points`, calling it on the points as given;
- `fraction_contains`: the former `Polytope.contains`, which checks the
  affine hull through `frame_coords` and then takes a `Fraction` dot product
  with every facet normal;
- `lp_extreme_points`: the former integer `extreme_points`, one phase-1 LP
  per distinct point through `polytope._in_convex_hull`.  The library's
  `extreme_points` now reads the vertices off one double description of
  all the points, with no LP, so these references stay independent of it;
- `ambient_facet_masks`: the former `polytope.facet_masks`, which places
  ambient points against the canonical facet normals of `facets()`.  The
  library's `point_table` now places hull coordinates against the
  hyperplanes its double description keeps, normals never lifted, so its
  `on_facet` bits must be the oracle's once each kept hyperplane is matched
  to its facet.  No system query lands on a facet hyperplane off the
  vertices, so only this comparison runs that branch on other points.

`make_polytope` keeps its LP per point; the library's own constructors call
`polytope._vertex_polytope`, which reads convex position off the facets it
keeps.  Both must build the same vertices and facets, in order, or raise
the same error with the same message.

The library now scales each point set to integers once and answers both
questions on `int`.  On seeded random point sets in dimensions 1 to 4, with
integer and rational coordinates, repeated points, points inside the hull
and skew rational embeddings of lower dimension, both sides must build the
same vertices or name the same offending point, keep the same extreme
points, and agree on membership of points inside, on the boundary, outside
and off the affine hull.  The extreme points are also compared on sets with
points inside edges and facets, lower-dimensional sets in R^3 and R^4, and
sets of 0, 1 and 2 points.
"""

import random
from fractions import Fraction
from typing import Iterator, Sequence

import pytest

from spinaltri import polytope
from spinaltri.linalg import DimensionError, QVector, int_dot, scaled_ints
from spinaltri.polytope import (
    DEFAULT_MAX_VERTICES,
    ENV_MAX_DIM,
    DuplicatePoint,
    Facet,
    NotInConvexPosition,
    Polytope,
    PolytopeError,
    extreme_points,
    frame_coords,
    make_polytope,
    max_ambient_dim,
    point_table,
    vertex_mask,
)
from linalg_oracle import QMatrix, Vec, rank, unit
from lp_oracle import fraction_in_convex_hull


# --- the former Fraction membership tests --------------------------------------


def fraction_make_polytope(
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
        if len(pts) > 1 and fraction_in_convex_hull(pts[i], pts[:i] + pts[i + 1 :]):
            raise NotInConvexPosition(i)
    return Polytope(pts, dim)


def fraction_extreme_points(points: Sequence[QVector]) -> list[QVector]:
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
        if not fraction_in_convex_hull(p, unique[:i] + unique[i + 1 :]):
            keep.append(p)
    return keep


def lp_extreme_points(points: Sequence[QVector]) -> list[QVector]:
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


def _inside_points(ints: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """The indices i, in order, of the integer points that lie in the convex
    hull of the others, one LP each; none for a single point."""
    if len(ints) > 1:
        for i in range(len(ints)):
            if polytope._in_convex_hull(ints[i], ints[:i] + ints[i + 1 :]):
                yield i


def fraction_contains(self: Polytope, x: QVector) -> bool:
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
    return all(Vec(f.normal).dot(x) <= f.offset for f in self.facets())


def ambient_facet_masks(
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


# --- instances ----------------------------------------------------------------


def _coord(rng: random.Random, rational: bool):
    if rational:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randint(-3, 3)


def _embed(rng: random.Random, pts, k: int, amb: int):
    """pts mapped by a random injective rational affine map R^k -> R^amb."""
    while True:
        a = QMatrix([[_coord(rng, True) for _ in range(k)] for _ in range(amb)])
        if rank(a) == k:
            break
    shift = Vec([_coord(rng, True) for _ in range(amb)])
    return [a @ v + shift for v in pts]


def point_sets(seed: int, count: int):
    """Random point lists in R^1 to R^4: a k-dimensional cloud, sometimes
    with a repeated point and a convex combination of two or three of its
    points inserted, then (for k < 4, half the time) mapped by a random
    injective rational affine map into R^(k + extra)."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 4)
        rational = rng.random() < 0.5
        pts = [
            Vec([_coord(rng, rational) for _ in range(k)])
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.3:
            pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
        if rng.random() < 0.4 and len(pts) > 1:
            picks = rng.sample(pts, min(len(pts), rng.randint(2, 3)))
            w = [Fraction(rng.randint(1, 3)) for _ in picks]
            combo = sum((c * v for c, v in zip(w, picks)), Vec.zero(k))
            pts.insert(rng.randrange(len(pts) + 1), combo * Fraction(1, sum(w)))
        extra = rng.randint(1, 4 - k) if k < 4 and rng.random() < 0.5 else 0
        if extra or rng.random() < 0.3:
            pts = _embed(rng, pts, k, k + extra)
        yield pts


def outcome(build, pts):
    """The vertices and facets built, or the error with its offending indices."""
    try:
        p = build(pts)
    except (PolytopeError, DimensionError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "first", None)
    return p.vertices, p.facets()


def probe_points(p: Polytope, rng: random.Random):
    """(kind, point): the vertices, the centroid, the centroid of every
    facet, points beyond each vertex, rational affine combinations of the
    vertices, random ambient points, and the centroid moved along each unit
    vector that leaves the affine hull."""
    n, amb = p.n_vertices, p.ambient_dim
    vertices = [Vec(v) for v in p.vertices]
    centroid = sum(vertices, Vec.zero(amb)) * Fraction(1, n)
    for v in vertices:
        yield "vertex", v
        if n > 1:
            yield "beyond", v + (v - centroid)
    yield "centroid", centroid
    edges = [v - p.vertices[0] for v in p.vertices]
    for i in range(amb):
        e = unit(amb, i)
        if rank(QMatrix(edges + [e])) > p.dim:
            yield "off-hull", centroid + e * Fraction(1, 3)
    if p.dim > 0:
        for f in p.facets():
            pts = [p.vertices[i] for i in f.incident]
            yield "facet", sum(pts, Vec.zero(amb)) * Fraction(1, len(pts))
    for _ in range(3):
        w = [Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in p.vertices]
        w[0] += 1 - sum(w)
        yield "combination", sum((c * v for c, v in zip(w, vertices)), Vec.zero(amb))
        yield "random", Vec([_coord(rng, True) for _ in range(amb)])


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_make_polytope_and_extreme_points_agree(seed):
    seen = set()
    for pts in point_sets(seed, 120):
        got = outcome(make_polytope, pts)
        assert got == outcome(fraction_make_polytope, pts), pts
        assert got == outcome(polytope._vertex_polytope, pts), pts
        want = fraction_extreme_points(pts)
        assert extreme_points(pts) == lp_extreme_points(pts) == want, pts
        seen.add(got[0] if isinstance(got[0], type) else len(pts[0]))
    assert {NotInConvexPosition, DuplicatePoint, 1, 2, 3, 4} <= seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contains_agrees(seed):
    rng = random.Random(50 + seed)
    answers = {}
    for pts in point_sets(seed, 60):
        ext = extreme_points(pts)
        if not ext:
            continue
        p = make_polytope(ext)
        for kind, x in probe_points(p, rng):
            got = p.contains(x)
            assert got == fraction_contains(p, x), (ext, x)
            answers.setdefault(kind, set()).add(got)
    for kind in ("vertex", "centroid", "facet"):
        assert answers[kind] == {True}, kind
    assert answers["beyond"] == {False}
    assert answers["combination"] == answers["random"] == {True, False}
    assert answers["off-hull"] == {False}


def test_contains_on_a_skew_rational_square():
    """A square spanning a rational plane in R^4: points of the plane inside
    and outside it, and each of them moved off the plane along every
    coordinate axis (none of which lies in the plane)."""
    a = QMatrix([[1, 0], [0, 1], [Fraction(1, 3), 2], [-1, Fraction(1, 2)]])
    shift = QVector([Fraction(1, 2), 0, 1, Fraction(-2, 3)])
    p = make_polytope([a @ QVector(v) + shift for v in [(0, 0), (2, 0), (0, 2), (2, 2)]])
    for u, inside in [((1, 1), True), ((2, Fraction(1, 2)), True), ((Fraction(15, 7), 1), False)]:
        x = a @ QVector(u) + shift
        assert p.contains(x) == fraction_contains(p, x) == inside
        for i in range(4):
            off = x + unit(4, i) * Fraction(1, 7)
            assert not p.contains(off) and not fraction_contains(p, off)


SQUARE = [QVector(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]]
CENTRE = QVector([Fraction(1, 2), Fraction(1, 2)])


@pytest.mark.parametrize("pos", range(5))
def test_square_plus_centre_in_every_position(pos):
    pts = SQUARE[:pos] + [CENTRE] + SQUARE[pos:]
    for build in (make_polytope, fraction_make_polytope, polytope._vertex_polytope):
        with pytest.raises(NotInConvexPosition) as exc:
            build(pts)
        assert exc.value.index == pos
    assert extreme_points(pts) == fraction_extreme_points(pts) == SQUARE
    assert make_polytope(SQUARE).vertices == tuple(SQUARE)


# --- extreme points from facet incidences --------------------------------------


def boundary_point_sets(seed: int, count: int):
    """(kinds, k, points): a random k-polytope (k = 1 to 4) given by its
    vertices, plus one to four of a rational point inside one of its edges,
    the centroid of one of its facets, its centroid and a repeated vertex,
    shuffled and mapped into R^k to R^4, so that k = 1 and 2 give collinear
    and coplanar sets in R^3 and R^4.  kinds names the redundant points
    added."""
    rng = random.Random(seed)
    while count:
        k = rng.randint(1, 4)
        cloud = [
            Vec([_coord(rng, rng.random() < 0.5) for _ in range(k)])
            for _ in range(rng.randint(k + 1, 7))
        ]
        ext = lp_extreme_points(cloud)
        p = Polytope(ext, k)
        if p.dim != k:
            continue
        count -= 1
        masks = p.incidence_masks()
        full = (1 << len(ext)) - 1

        def face(mask):
            out = full
            for g in masks:
                if g & mask == mask:
                    out &= g
            return out

        edges = [
            (i, j)
            for i in range(len(ext))
            for j in range(i + 1, len(ext))
            if face(1 << i | 1 << j) == 1 << i | 1 << j
        ]
        i, j = rng.choice(edges)
        w = Fraction(rng.randint(1, 4), 5)
        facet = rng.choice(p.facets()).incident
        extra = {
            "edge": ext[i] * w + ext[j] * (1 - w),
            "facet": sum((ext[v] for v in facet), Vec.zero(k)) * Fraction(1, len(facet)),
            "centroid": sum(ext, Vec.zero(k)) * Fraction(1, len(ext)),
            "repeat": rng.choice(ext),
        }
        kinds = rng.sample(sorted(extra), rng.randint(1, 4))
        pts = ext + [extra[name] for name in kinds]
        rng.shuffle(pts)
        amb = rng.randint(k, 4)
        if amb > k or rng.random() < 0.5:
            pts = _embed(rng, pts, k, amb)
        yield kinds, k, pts


def small_point_sets():
    """0, 1 and 2 points, repeated or not, in R^1 to R^4."""
    yield []
    for amb in (1, 2, 3, 4):
        a = QVector([Fraction(j + 1, 3) for j in range(amb)])
        b = QVector([Fraction(-j, 2) for j in range(amb)])
        yield from ([a], [a, a], [a, b], [b, a], [a, b, a], [b, b, a])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extreme_points_on_boundary_points(seed):
    seen = set()
    for kinds, k, pts in boundary_point_sets(100 + seed, 80):
        want = lp_extreme_points(pts)
        assert extreme_points(pts) == want == fraction_extreme_points(pts), pts
        assert len(want) < len(pts)
        seen.update((kind, len(pts[0]), k) for kind in kinds)
    # Every kind of redundant point; collinear and coplanar sets in R^3 and
    # R^4, and 3-dimensional ones in R^4.
    assert {kind for kind, _, _ in seen} == {"edge", "facet", "centroid", "repeat"}
    assert {(amb, k) for _, amb, k in seen} >= {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}


def test_extreme_points_on_small_sets():
    for pts in small_point_sets():
        assert extreme_points(pts) == lp_extreme_points(pts) == fraction_extreme_points(pts)
        assert extreme_points(pts) == list(dict.fromkeys(pts))


def test_extreme_points_make_no_lp(monkeypatch):
    cases = list(point_sets(3, 60))
    cases += [pts for _, _, pts in boundary_point_sets(103, 30)]
    cases += list(small_point_sets())
    want = [lp_extreme_points(pts) for pts in cases]

    def no_lp(constraints):
        raise AssertionError("an LP was built")

    monkeypatch.setattr(polytope, "lp_feasible", no_lp)
    assert [extreme_points(pts) for pts in cases] == want


def test_vertex_polytope_agrees_on_boundary_small_and_capped_sets(monkeypatch):
    """Points inside edges and facets, centroids and repeats, also on hulls
    of lower dimension; 0, 1 and 2 points; mixed dimensions and each cap."""
    cases = [pts for _, _, pts in boundary_point_sets(110, 60)]
    cases += [extreme_points(pts) for _, _, pts in boundary_point_sets(120, 30)]
    cases += list(small_point_sets())
    cases += [[QVector([0, 0]), QVector([1, 0, 0])]]
    cases += [[QVector([t, t * t]) for t in range(DEFAULT_MAX_VERTICES + k)] for k in (0, 1)]
    cases += [[QVector([int(j == i) for j in range(17)]) for i in range(3)]]
    rejected = 0
    for pts in cases:
        got = outcome(polytope._vertex_polytope, pts)
        assert got == outcome(make_polytope, pts), pts
        rejected += isinstance(got[0], type)
    assert 0 < rejected < len(cases)
    square3 = [QVector([*v, 1]) for v in SQUARE]
    for raw in ("2", "x"):
        monkeypatch.setenv(ENV_MAX_DIM, raw)
        for pts in (square3, SQUARE):
            assert outcome(polytope._vertex_polytope, pts) == outcome(make_polytope, pts)


# --- facet bits on the kept hyperplanes against the ambient normals ------------


def placed_as_facets(p: Polytope, points) -> list[int] | str:
    """point_table's on_facet bits of points against p, each renumbered
    from the masks it indexes to the positions of p.facets(): the vertex
    table indexes p's masks, any other the kept hyperplanes."""
    on_facet = point_table(p, points)[2]
    if isinstance(on_facet, str):
        return on_facet
    if points is p.vertices:
        masks = p.incidence_masks()
    else:
        masks = [z for *_, z in polytope._hyperplanes(p)]
    facets = [vertex_mask(f.incident) for f in p.facets()]
    where = [facets.index(m) for m in masks]
    return [sum(1 << where[j] for j in range(len(masks)) if b >> j & 1) for b in on_facet]


def ambient_outcome(p: Polytope, points) -> list[int] | str:
    try:
        return ambient_facet_masks(p.facets(), *scaled_ints(points))
    except PolytopeError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_on_facet_bits_agree_with_the_ambient_normals(seed):
    # The public and the library constructor, and the shadow of each
    # polytope's first spine of two points, whose vertex table comes from
    # its spine's masks in their own order; embedded hulls among them.
    from spinaltri.spine import enumerate_spines, spine
    from spinaltri.triangulation import shadow

    rng = random.Random(80 + seed)
    hits = set()
    for pts in point_sets(seed, 60):
        ext = extreme_points(pts)
        if not ext:
            continue
        built = [make_polytope(ext), polytope._vertex_polytope(ext)]
        spines = enumerate_spines(built[0], 2) if built[0].dim > 1 else []
        if spines:
            built.append(shadow(spine(built[0], spines[0])).polytope)
        for p in built:
            assert placed_as_facets(p, p.vertices) == ambient_outcome(p, p.vertices)
            probe = Polytope([Vec(v) for v in p.vertices], p.ambient_dim)
            for kind, x in probe_points(probe, rng):
                if isinstance(point_table(p, [x])[0], str):
                    continue  # off the affine hull: no bits to compare
                got = placed_as_facets(p, [x])
                assert got == ambient_outcome(p, [x]), (p.vertices, x)
                if kind != "vertex" and got != [0]:
                    on = "beyond" if isinstance(got, str) else "on a facet"
                    hits.add((on, p.dim < p.ambient_dim, len(built) == 3 and p is built[2]))
    # Points on a facet hyperplane off the vertices, and points beyond one,
    # on full-dimensional and embedded hulls and on shadows.
    assert {(on, emb) for on, emb, _ in hits} == {
        (on, emb) for on in ("beyond", "on a facet") for emb in (False, True)
    }
    assert ("on a facet", True, True) in hits
