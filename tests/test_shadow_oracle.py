"""Cross-check the shadow's vertices by theorem against the vertex test.

`extreme_points_shadow_polytope` is the library's former `shadow_polytope`,
kept but for one name and the cache it kept on the map: it hulls the
projected vertex images with one exact LP per image, through
`lp_extreme_points`, the library's former `extreme_points`.
`shadow_polytope` now takes the vertices from the spine's facet masks; on every spine of every instance both must give the same vertex
list, in the same order.

`spine.spine` no longer checks that a spine is affinely independent; the
check it made, a nonzero Gram determinant, must hold on every spine that
`enumerate_spines` finds.
"""

import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import Polytope, extreme_points, make_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import ShadowMap, shadow_polytope
from random_polytopes import random_polytope
from test_frame_oracle import instances
from test_membership_oracle import lp_extreme_points


def extreme_points_shadow_polytope(sm: ShadowMap) -> Polytope:
    """Convex hull of the projected vertex images (the origin included)."""
    ext = lp_extreme_points(list(sm.shadow_points))
    return Polytope(ext, sm.spine.polytope.ambient_dim)


def cube(d):
    return make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=d)])


def cross_polytope(d):
    return make_polytope(
        [QVector([s * (j == i) for j in range(d)]) for i in range(d) for s in (1, -1)]
    )


def random_instances():
    rng = random.Random(20261018)
    for d in (2, 3, 4, 5):
        for k in range(25):
            yield f"random{d}-{k}", random_polytope(rng, (d,))


def named_instances():
    for d in (1, 2, 3, 4):
        yield f"cube{d}", cube(d)
        yield f"cross{d}", cross_polytope(d)
    for n, s in [(1, 3), (2, 1), (2, 2), (2, 3), (3, 1)]:
        yield f"S({n},{s})", simplotope_with_spine(n, s)[0]
    for n, s in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4)]:
        yield f"E({n},{s})", everest_polytope(EverestParams(n, s))
    yield "point", make_polytope([QVector([2, 3])])
    yield "segment", make_polytope([QVector([0, 1]), QVector([3, 5])])


def skew_instances():
    for seed in (0, 1):
        for k, p in enumerate(instances(seed, 8)):
            yield f"skew{seed}-{k}", p


def assert_same_shadows(p):
    """Equal vertex lists on every spine of p; the number of spines."""
    spines = enumerate_spines(p, 1)
    for s in spines:
        want = extreme_points_shadow_polytope(ShadowMap(spine(p, s)))
        got = shadow_polytope(ShadowMap(spine(p, s)))
        assert got.vertices == want.vertices, s
        assert got.ambient_dim == want.ambient_dim
    return len(spines)


@pytest.mark.parametrize(
    "source", [random_instances, named_instances, skew_instances]
)
def test_vertex_lists_agree(source):
    dims, count = set(), 0
    for name, p in source():
        dims.add(p.dim)
        count += assert_same_shadows(p)
    assert count > 100
    if source is random_instances:
        assert dims == {2, 3, 4, 5}


def test_origin_is_kept_exactly_when_the_spine_spans_a_face():
    zero = QVector([0, 0, 0])
    # The cube's diagonal is no face: the origin lies inside the hexagon.
    hexagon = shadow_polytope(ShadowMap(spine(cube(3), [0, 7]))).vertices
    assert len(hexagon) == 6 and zero not in hexagon
    # A tetrahedron's edge is a face: the origin is a vertex of the triangle.
    simplex = make_polytope([zero] + [QVector([int(j == i) for j in range(3)]) for i in range(3)])
    triangle = shadow_polytope(ShadowMap(spine(simplex, [0, 1]))).vertices
    assert triangle[0] == zero and len(triangle) == 3
    # All of a simplex is a spine and a face; its shadow is the origin alone.
    assert shadow_polytope(ShadowMap(spine(simplex, [0, 1, 2, 3]))).vertices == (zero,)


coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def point_sets(draw):
    d = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.tuples(*[coordinate] * d), min_size=1, max_size=8, unique=True
        )
    )
    return [QVector(r) for r in rows]


@given(point_sets())
def test_vertex_lists_agree_on_drawn_polytopes(pts):
    ext = extreme_points(pts)
    assume(len(ext) <= 12)
    assert_same_shadows(make_polytope(ext))


@pytest.mark.parametrize(
    "source", [random_instances, named_instances, skew_instances]
)
def test_former_independence_guard_never_fires(source):
    for name, p in source():
        for s in enumerate_spines(p, 1):
            pts = [p.vertices[i] for i in s]
            assert gram_sq_volume(pts, len(s) - 1) != 0, (name, s)
