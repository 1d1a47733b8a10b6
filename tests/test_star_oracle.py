"""Cross-check star triangulations from one double description against the
former route, `star_oracle.lp_star_triangulation`.

On every input both must give the same cells and dimension, or raise the
same exception type with the same message, under the input order and under
shuffled orders.  The inputs are the stars that `selftest`,
`test_pulling_oracle.py` and the shadows of `test_shadow_oracle.py` build,
hand-picked positions of the origin in dimensions 2 to 4, lower-dimensional
hulls in R^3, and seeded random point sets with duplicates, non-extreme
points and more than 30 non-origin points.  There are four deliberate
differences, all listed in `star_oracle.py`: the origin alone, which the
former route rejected as an empty hull; 30 non-origin points with the
origin outside their hull, which the former route refused under the
30-vertex cap on all points and which is now accepted, since the cap counts
the points other than the origin; the point a rejected input names, which
`check_named_point` confirms by the LP oracle where the two routes may
differ; and an origin of another dimension, now refused before the others'
convex position is checked.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from spinaltri.linalg import DimensionError, QVector
from spinaltri.polytope import (
    NotInConvexPosition,
    PolytopeError,
    extreme_points,
    make_polytope,
)
from spinaltri.selfcheck import Workspace, _random_polytope, _star_orders
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import shadow, star_triangulation, validate
from lp_oracle import fraction_in_convex_hull
from star_oracle import lp_star_triangulation
from test_pulling_oracle import _orders
from test_shadow_oracle import named_instances, random_instances, skew_instances


def outcome(build, pts, order):
    """(cells, dim) of a star, or (exception type, message)."""
    try:
        t = build(pts, order)
    except Exception as exc:  # every error must match the oracle's
        return type(exc), str(exc)
    return t.simplices, t.dim


def assert_same(pts, orders) -> bool:
    """Equal outcomes for every order, but for the point that an input both
    routes reject as not in convex position names, which `check_named_point`
    checks; whether the input was accepted."""
    for order in orders:
        got = outcome(star_triangulation, pts, order)
        want = outcome(lp_star_triangulation, pts, order)
        if got[0] is not NotInConvexPosition or want[0] is not NotInConvexPosition:
            assert got == want, (pts, order)
    if got[0] is NotInConvexPosition:
        check_named_point(pts)
    return not isinstance(got[0], type)


def check_named_point(pts) -> None:
    """The LP oracle confirms the point a rejected star names: it lies in the
    hull of the other input points, and no earlier point but the origin
    does.  The origin itself is never named."""
    with pytest.raises(NotInConvexPosition) as exc:
        star_triangulation(pts)
    i = exc.value.index
    in_hull = [
        not q.is_zero() and fraction_in_convex_hull(q, pts[:j] + pts[j + 1 :])
        for j, q in enumerate(pts[: i + 1])
    ]
    assert in_hull == [False] * i + [True], (pts, i)


def shuffled(rng: random.Random, n: int, count: int = 1) -> list[list[int] | None]:
    """The input order and count seeded permutations of range(n)."""
    return [None] + _orders(rng, n, count + 1)[1:]


def test_selftest_stars_match_oracle():
    ws = Workspace()
    sps = [ws.cube_spine(3), ws.simplotope(2, 2)[1], ws.cube_spine(4)]
    for sp in sps:
        pts = list(shadow(sp).star_points)
        assert assert_same(pts, _star_orders(len(pts), 7, 8))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_pulling_oracle_stars_match_oracle(d):
    # The draws of test_pulling_oracle.test_random_spine_shadow_stars_match_oracle.
    rng = random.Random(2000 + d)
    checked = 0
    for _ in range(4):
        p = _random_polytope(rng, (d,))
        proper = [u for u in enumerate_spines(p, 2) if len(u) < p.n_vertices]
        for idx in proper[:3]:
            pts = list(shadow(spine(p, idx)).star_points)
            assert assert_same(pts, _orders(rng, len(pts), 3))
            checked += 1
    assert checked >= 2


@pytest.mark.parametrize(
    "source", [random_instances, named_instances, skew_instances]
)
def test_shadow_oracle_stars_match_oracle(source):
    rng = random.Random(16)
    checked = 0
    for _, p in source():
        for s in enumerate_spines(p, 1):
            pts = list(shadow(spine(p, s)).star_points)
            if len(pts) == 1:
                continue  # the origin alone; see test_origin_alone_is_its_own_star
            assert assert_same(pts, shuffled(rng, len(pts)))
            checked += 1
    assert checked > 100


def test_origin_alone_is_its_own_star():
    origin = [QVector([0, 0, 0])]
    t = star_triangulation(origin)
    assert (t.simplices, t.dim, t.points) == (((0,),), 0, tuple(origin))
    assert star_triangulation(origin, [0]).simplices == ((0,),)
    with pytest.raises(PolytopeError, match="^empty point list$"):
        lp_star_triangulation(origin)


def box(lo_hi) -> list[QVector]:
    return [QVector(c) for c in itertools.product(*lo_hi)]


def cross(d: int, shift: int = 0) -> list[QVector]:
    pts = []
    for i in range(d):
        for s in (1, -1):
            pts.append(QVector([s * (j == i) + shift * (j == 0) for j in range(d)]))
    return pts


def hand_picked():
    """(name, points without the origin) for each position of the origin."""
    for d in (2, 3, 4):
        yield f"inside-box{d}", box([(-1, 1)] * d)
        yield f"inside-cross{d}", cross(d)
        # The origin in the relative interior of a facet.
        yield f"facet-box{d}", box([(0, 2)] + [(-1, 1)] * (d - 1))
        yield f"facet-cross{d}", cross(d, 1)
        if d >= 3:
            # In a face of dimension d - 2, and in an edge.
            yield f"ridge-box{d}", box([(0, 2)] * 2 + [(-1, 1)] * (d - 2))
            yield f"edge-box{d}", box([(0, 2)] * (d - 1) + [(-1, 1)])
        # A vertex of the hull of all points, outside the others'.
        yield f"vertex-box{d}", box([(0, 1)] * d)[1:]
        yield f"outside-box{d}", box([(1, 2)] * d)
        yield f"outside-cross{d}", cross(d, 2)
        # Outside, but one other point falls into the hull of all points.
        yield f"swallowed{d}", [
            QVector([Fraction(1, 2)] * d),
            *(QVector([2 * (j == i) for j in range(d)]) for i in range(d)),
            QVector([2] * d),
        ]
    # A vertex of the others' hull is the origin's neighbour on a segment.
    yield "segment-outside", [QVector([1, 1]), QVector([2, 2])]
    yield "segment-inside", [QVector([1, 1]), QVector([-2, -2])]
    yield "single-other", [QVector([1, 2, 3])]


def lower_dimensional():
    """Points of R^3 on a plane or a line, through the origin or not."""
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    yield "plane-inside", [QVector([a, b, a + b]) for a, b in square]
    yield "plane-edge", [QVector([a + 1, b, a + 1 + b]) for a, b in square]
    yield "plane-vertex", [QVector([a + 1, b + 1, 2 * a - b]) for a, b in square][:3]
    yield "plane-outside", [QVector([a + 3, b, a - b]) for a, b in square]
    yield "plane-off", [QVector([a, b, 1]) for a, b in square]
    yield "line-inside", [QVector([1, 2, 3]), QVector([-2, -4, -6])]
    yield "line-outside", [QVector([1, 2, 3]), QVector([2, 4, 6])]
    yield "line-off", [QVector([1, 2, 3]), QVector([2, 3, 4])]
    yield "triangle-off", [QVector([1, 0, 1]), QVector([0, 1, 1]), QVector([1, 1, 1])]


@pytest.mark.parametrize("source", [hand_picked, lower_dimensional])
def test_hand_picked_origins_match_oracle(source):
    rng = random.Random(4)
    accepted = 0
    for name, others in source():
        zero = QVector.zero(len(others[0]))
        for z in {0, len(others) // 2, len(others)}:
            pts = others[:z] + [zero] + others[z:]
            accepted += assert_same(pts, shuffled(rng, len(pts), 2))
    assert accepted > 20


def test_named_positions_are_as_named():
    # The cases above reach each branch: the outside branch pulls the
    # polytope of all points, the others cone over the hull's facets.
    def cells(others):
        return star_triangulation(others + [QVector.zero(len(others[0]))]).simplices

    assert len(cells(box([(-1, 1)] * 3))) == 12
    assert len(cells(box([(0, 2)] + [(-1, 1)] * 2))) == 10
    assert len(cells(box([(0, 1)] * 3)[1:])) == 6
    with pytest.raises(Exception, match="^point 0 lies in the convex hull"):
        cells(list(dict(hand_picked())["swallowed3"]))


@pytest.mark.parametrize(
    "pts,error,former",
    [
        # Point 1 is a vertex of the others' hull and lies in the hull of
        # all points; point 4 lies in the others' hull.  The library names
        # the first point that is no vertex of the hull of all points, the
        # former route the first one in the others' hull.
        ([(0, 0), (1, 0), (3, 1), (3, -1), (2, 0)], "point 1 lies in the convex hull",
         "point 4 lies in the convex hull"),
        ([(0, 0), (1, 0), (3, 1), (3, -1)], "point 1 lies in the convex hull", None),
        # The library refuses the origin's dimension first; the former route
        # checked the others first.
        ([(1, 1), (0, 0, 0), (-1, 1), (0, 1), (-1, -1), (1, -1)],
         "point of dim 3 against ambient dim 2", "point 3 lies in the convex hull"),
        ([(1, 1), (0, 0, 0), (-1, 1), (-1, -1), (1, -1)],
         "point of dim 3 against ambient dim 2", None),
    ],
    ids=["hidden-and-inside", "hidden", "origin-dim-nonconvex", "origin-dim"],
)
def test_rejected_inputs_name_the_oracles_point(pts, error, former):
    # The point named is the one the LP oracle confirms; where the former
    # route named another, both names are pinned.
    pts = [QVector(q) for q in pts]
    for build, message in ((star_triangulation, error), (lp_star_triangulation, former or error)):
        for order in (None, list(range(len(pts)))[::-1]):
            with pytest.raises(ValueError, match=f"^{message}"):
                build(pts, order)
    if error.startswith("point 1"):
        check_named_point(pts)


def random_others(rng: random.Random) -> list[QVector]:
    """Distinct nonzero points, their extreme points or a raw draw, with a
    duplicate now and then; in R^3 sometimes on a plane."""
    d = rng.choice((2, 3, 3, 4))
    count = rng.choice((rng.randint(1, 9), rng.randint(28, 34)))
    flat = d == 3 and rng.random() < 0.25
    pts = []
    while len(pts) < count:
        q = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))) for _ in range(d)]
        if flat:
            q[2] = q[0] - q[1] + rng.choice((0, 1))
        if any(q) and q not in pts:
            pts.append(q)
    if count < 28 and rng.random() < 0.5:
        # Convex position: the vertices of the hull of the draw with the
        # origin, without the origin.
        ext = extreme_points([QVector(q) for q in pts] + [QVector.zero(d)])
        pts = [list(v) for v in ext if not v.is_zero()] or pts
    if rng.random() < 0.15:
        pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
    return [QVector(q) for q in pts]


def test_random_point_sets_match_oracle():
    rng = random.Random(20261019)
    accepted = rejected = named = 0
    for _ in range(300):
        others = random_others(rng)
        pts = list(others)
        pts.insert(rng.randrange(len(pts) + 1), QVector.zero(len(others[0])))
        if assert_same(pts, shuffled(rng, len(pts))):
            accepted += 1
        else:
            rejected += 1
            named += outcome(star_triangulation, pts, None)[0] is NotInConvexPosition
    # Each named point was confirmed by the LP oracle (check_named_point).
    assert accepted > 60 and rejected > 60 and named > 30


def test_cap_errors_match_oracle():
    # The cap counts the others: 30 are allowed wherever the origin lies,
    # and 31 are not.  The oracle capped all points, the origin included,
    # so it refuses 30 others with the origin outside.
    inside = [QVector([t, t * t - 50]) for t in range(-15, 16) if t]
    outside = [QVector([t, t * t]) for t in range(1, 31)]
    many = [QVector([t, t * t]) for t in range(1, 32)]
    for others in (inside, many):
        assert_same([QVector([0, 0])] + others, [None])
    assert star_triangulation([QVector([0, 0])] + inside).n_simplices == 30
    pts = [QVector([0, 0])] + outside
    star = star_triangulation(pts)
    assert star.n_simplices == 29
    assert validate(star, make_polytope(pts, max_vertices=31))
    with pytest.raises(PolytopeError, match="^31 vertices exceed"):
        lp_star_triangulation(pts, None)


def test_mixed_dimension_and_bad_orders_match_oracle():
    square = [QVector(c) for c in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    cases = [
        square + [QVector([0, 0, 0])],
        [QVector([1, 1]), QVector([1, 1, 1]), QVector([0, 0])],
        square + [QVector([0, 0]), QVector([0, 0])],
        square,
    ]
    for pts in cases:
        assert_same(pts, [None])
    # An origin of another dimension is refused before the others' convex
    # position; the former route named the non-extreme point 4 first.
    pts = square + [QVector([Fraction(1, 2), 0]), QVector([0, 0, 0])]
    with pytest.raises(DimensionError, match="^point of dim 3 against ambient dim 2$"):
        star_triangulation(pts)
    with pytest.raises(NotInConvexPosition, match="^point 4 lies"):
        lp_star_triangulation(pts)
    pts = square + [QVector([0, 0])]
    for order in ([0, 1, 2, 3], [0, 1, 2, 3, 3], [4, 3, 2, 1, 0, 5]):
        assert_same(pts, [order])
