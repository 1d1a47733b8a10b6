"""Cross-check the shadow's vertices by theorem against the vertex test.

`extreme_points_shadow_polytope` is the library's former `shadow_polytope`,
kept but for one name and the cache it kept on the map: it hulls the
projected vertex images with one exact LP per image, through
`lp_extreme_points`, the library's former `extreme_points`.
`shadow_polytope` now takes the vertices from the spine's facet masks; on every spine of every instance both must give the same vertex
list, in the same order.

The shadow's facet masks, and the facet bits of the star points in the
point table it keeps for `star_points`, come from P's facet masks by (iii)
of the `ShadowMap` docstring.  The oracle is the double description on a
fresh `Polytope` over the shadow's vertices: the masks must be its
`incidence_masks()` as a set, and the star bits must be `facet_masks` of its
`facets()` once each facet is matched to its mask.

`spine.spine` no longer checks that a spine is affinely independent; the
check it made, a nonzero Gram determinant, must hold on every spine that
`enumerate_spines` finds.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
from spinaltri.io import load_polytope
from spinaltri.linalg import QVector, gram_sq_volume, scaled_ints
from spinaltri.polytope import (
    Polytope, _build_frame, extreme_points, facet_masks, hull_ints, make_polytope,
    point_table, vertex_mask
)
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
    return make_polytope(
        [QVector(b) for b in itertools.product((0, 1), repeat=d)], max_vertices=2**d
    )


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


# --- the shadow's facets and star incidences against the double description


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def golden_instances():
    """Every polytope among the golden inputs that loads."""
    for path in sorted(GOLDEN_INPUTS.glob("*.json")):
        try:
            yield path.stem, load_polytope(str(path))
        except (ValueError, OSError):
            continue  # a malformed document or a triangulation file


def assert_same_faces(sm):
    """The shadow's derived masks and star bits against a fresh double
    description on its vertices."""
    got = sm.polytope
    fresh = Polytope(got.vertices, got.ambient_dim)
    masks = got.incidence_masks()
    assert sorted(masks) == sorted(fresh.incidence_masks())
    assert len(set(masks)) == len(masks)
    facets = fresh.facets()
    where = [[vertex_mask(f.incident) for f in facets].index(m) for m in masks]
    on_facet = point_table(got, sm.star_points)[2]
    assert [sum(1 << where[j] for j in range(len(masks)) if b >> j & 1) for b in on_facet] == (
        facet_masks(facets, *scaled_ints(sm.star_points))
    )


def assert_same_faces_on_spines(p, min_size=1):
    """assert_same_faces on every spine of p; the number of spines."""
    spines = enumerate_spines(p, min_size, max_vertices=p.n_vertices)
    for s in spines:
        assert_same_faces(ShadowMap(spine(p, s)))
    return len(spines)


@pytest.mark.parametrize(
    "source", [random_instances, named_instances, skew_instances, golden_instances]
)
def test_shadow_faces_agree_with_the_double_description(source):
    # The random 5-polytopes run under slow, with the 5-cube.
    count = sum(assert_same_faces_on_spines(p) for name, p in source() if p.dim < 5)
    assert count > 100


def test_zero_dimensional_shadows_have_no_facets():
    for p in (cube(1), make_polytope([QVector([0, 0]), QVector([1, 0]), QVector([0, 1])])):
        sm = ShadowMap(spine(p, range(p.n_vertices)))
        assert sm.polytope.dim == 0 and sm.polytope.incidence_masks() == []
        assert point_table(sm.polytope, sm.star_points)[2] == [0]
    assert ShadowMap(spine(make_polytope([QVector([2, 3])]), [0])).polytope.incidence_masks() == []


@pytest.mark.slow
def test_shadow_faces_agree_on_the_5_cube_and_the_larger_polytopes():
    count = assert_same_faces_on_spines(cube(5))
    for source in (random_instances, named_instances, skew_instances, golden_instances):
        count += sum(assert_same_faces_on_spines(p) for name, p in source() if p.dim >= 5)
    for n, s in [(2, 4), (1, 5), (3, 2)]:
        count += assert_same_faces_on_spines(simplotope_with_spine(n, s)[0], 2)
    assert count > 1000


# --- the shadow's frame from the map's integer images


def integer_frame_spines():
    yield "cube3", spine(cube(3), [0, 7])
    yield "cube4", spine(cube(4), [0, 15])
    yield "S(2,2)", simplotope_with_spine(2, 2)[1]
    # An edge of the simplex is a face: the origin is a vertex of the shadow.
    simplex = make_polytope([QVector(r) for r in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    yield "simplex3", spine(simplex, [0, 1])
    # Images (16, -8, -8) / 12 and the like: the gcd of the scale and the
    # numerators is 4, so the map reduces them before building the frame.
    dilated = make_polytope([QVector(b) for b in itertools.product((0, 2), repeat=3)])
    yield "dilated-cube3", spine(dilated, [0, 7])
    rng = random.Random(20261021)
    for d in (3, 4):
        for k in range(4):
            p = random_polytope(rng, (d,))
            for s in enumerate_spines(p, 1):
                yield f"random{d}-{k}-{s}", spine(p, s)


def test_the_shadow_frame_from_integers_is_the_frame_from_its_vertices():
    vscales = {}
    for name, sp in integer_frame_spines():
        sm = ShadowMap(sp)
        got = sm.polytope
        want = _build_frame(*scaled_ints(got.vertices), got.ambient_dim)
        assert got.frame() == want, name
        coords, scale = got._point_table[1][:2]
        assert got._point_table[0] is sm.star_points
        assert (coords, scale) == hull_ints(want, *scaled_ints(sm.star_points)), name
        vscales[name] = want.vscale
    assert vscales["dilated-cube3"] == 3  # the images' scale 12 over g = 4
    assert len(vscales) > 50
