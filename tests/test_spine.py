import itertools
import random

import pytest

from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import (
    Facet,
    PolytopeError,
    facets_of_face,
    make_polytope,
    vertex_mask,
)
from spinaltri.spine import Spine, SpineError, enumerate_spines, is_spine, spine
from random_polytopes import random_polytope


def cube(d):
    return make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=d)])


def simplex(d):
    pts = [QVector([0] * d)] + [QVector([1 if j == i else 0 for j in range(d)]) for i in range(d)]
    return make_polytope(pts)


# Oracles: the former count-based facet criterion and combination search,
# kept verbatim, and the geometric covering criterion and the restriction of
# a spine to a facet, which the library no longer exports.


def is_spine_counting(p, indices):
    """Facet criterion: every facet contains at least |U| - 1 points of U."""
    idx = set(indices)
    if not idx:
        raise SpineError("a spine must be nonempty")
    if not idx <= set(range(p.n_vertices)):
        raise SpineError("spine indices out of range")
    if p.dim == 0:
        return True
    need = len(idx) - 1
    for f in p.facets():
        if len(idx & set(f.incident)) < need:
            return False
    return True


def enumerate_spines_by_combinations(p, min_size, *, max_vertices=20):
    """All spines of size >= min_size, in lexicographic order of index tuples."""
    if p.n_vertices > max_vertices:
        raise PolytopeError(
            f"{p.n_vertices} vertices exceed the enumeration cap {max_vertices}"
        )
    if min_size < 1:
        raise SpineError("min_size must be at least 1")
    out = []
    for size in range(min_size, p.n_vertices + 1):
        for combo in itertools.combinations(range(p.n_vertices), size):
            if is_spine_counting(p, combo):
                out.append(combo)
    out.sort()
    return out


def is_spine_geometric(p, indices):
    """Covering criterion: the U-spanned full simplices exhaust the polytope.

    Realized through a pulling triangulation with U pulled first: the cells
    of that triangulation that contain U lie in the U-span, so U covers the
    polytope iff their volumes already add up to the whole volume.
    """
    from spinaltri.triangulation import pulling_triangulation
    from spinaltri.volume import triangulation_relative_volume, polytope_relative_volume

    idx = tuple(sorted(set(indices)))
    if not idx:
        raise SpineError("a spine must be nonempty")
    if p.dim == 0:
        raise PolytopeError("degenerate polytope")
    order = list(idx) + [i for i in range(p.n_vertices) if i not in idx]
    t = pulling_triangulation(p, order)
    spinal = [s for s in t.simplices if set(idx) <= set(s)]
    covered = triangulation_relative_volume(p, spinal)
    return covered == polytope_relative_volume(p)


def face_spine(s: Spine, face: Facet) -> tuple[int, ...]:
    """Restriction of a spine to a facet; validated on the facet's ridges."""
    p = s.polytope
    sub = tuple(sorted(set(s.indices) & set(face.incident)))
    if len(sub) < s.n - 1:
        raise SpineError("facet misses too many spine points")  # cannot happen
    if not sub:
        raise SpineError("a spine must be nonempty")
    # The facet criterion on the face, whose facets are its ridges in P.
    sub_mask = vertex_mask(sub)
    facet_masks = [vertex_mask(f.incident) for f in p.facets()]
    for ridge in facets_of_face(vertex_mask(face.incident), facet_masks):
        if (ridge & sub_mask).bit_count() < len(sub) - 1:
            raise SpineError("restriction is not a spine of the face")  # cannot happen
    return sub


def small_instances():
    """Named polytopes small enough to test every vertex subset."""
    yield "point", make_polytope([QVector([2, 3])])
    yield "segment", make_polytope([QVector([0, 1]), QVector([3, 5])])
    for d in (2, 3):
        yield f"cube{d}", cube(d)
    for d in (1, 2, 3, 4):
        yield f"simplex{d}", simplex(d)
    yield "S(2,2)", simplotope_with_spine(2, 2)[0]
    yield "E(1,2)", everest_polytope(EverestParams(1, 2))
    rng = random.Random(8)
    for i in range(20):
        yield f"random{i}", random_polytope(rng)


class TestIsSpine:
    def test_cube_diagonal(self):
        assert is_spine(cube(3), {0, 7})

    def test_cube_adjacent_pair(self):
        assert not is_spine(cube(3), {0, 1})

    def test_singletons_always(self):
        p = cube(3)
        for i in range(p.n_vertices):
            assert is_spine(p, {i})

    def test_empty_rejected(self):
        with pytest.raises(SpineError):
            is_spine(cube(2), set())

    def test_simplex_every_subset(self):
        p = simplex(3)
        for size in range(1, 5):
            for combo in itertools.combinations(range(4), size):
                assert is_spine(p, combo)

    def test_facet_may_contain_whole_spine(self):
        # On a triangle, an edge pair is a spine although one facet contains
        # both of its points.
        p = simplex(2)
        fs = p.facets()
        edge = max(fs, key=lambda f: len(f.incident)).incident[:2]
        assert is_spine(p, edge)
        assert is_spine_geometric(p, edge)
        assert any(set(edge) <= set(f.incident) for f in fs)


class TestGeometricAgreement:
    @pytest.mark.parametrize("d", [2, 3])
    def test_exhaustive_on_cubes(self, d):
        p = cube(d)
        for size in range(1, p.n_vertices + 1):
            for combo in itertools.combinations(range(p.n_vertices), size):
                assert is_spine(p, combo) == is_spine_geometric(p, combo)

    def test_exhaustive_on_4_simplex(self):
        p = simplex(4)
        for size in range(1, 6):
            for combo in itertools.combinations(range(5), size):
                assert is_spine(p, combo)
                assert is_spine_geometric(p, combo)

    def test_exhaustive_on_dim4_simplotope(self):
        # Full sweep over all 511 vertex subsets of the 4-dimensional
        # product of two triangles.
        p, _ = simplotope_with_spine(2, 2)
        for size in range(1, 10):
            for combo in itertools.combinations(range(9), size):
                assert is_spine(p, combo) == is_spine_geometric(p, combo)

    def test_square_spine_of_simplotope(self):
        p, sp = simplotope_with_spine(2, 1)
        assert is_spine_geometric(p, sp.indices)


class TestSpineConstruction:
    def test_valid(self):
        sp = spine(cube(3), [7, 0])
        assert sp.indices == (0, 7)
        assert sp.n == 2

    def test_invalid(self):
        with pytest.raises(SpineError):
            spine(cube(3), [0, 1])

    def test_affine_independence(self):
        sp = spine(simplex(3), [0, 1, 2, 3])
        assert gram_sq_volume(sp.points(), sp.n - 1) != 0


class TestFaceSpine:
    def test_cube_diagonal_on_each_facet(self):
        p = cube(3)
        sp = spine(p, [0, 7])
        for f in p.facets():
            sub = face_spine(sp, f)
            assert len(sub) == 1

    @pytest.mark.parametrize("builder,u", [
        (lambda: cube(3), [0, 7]),
        (lambda: simplotope_with_spine(2, 2)[0], None),
    ])
    def test_monotone_under_faces(self, builder, u):
        # An l-face of a d-polytope keeps at least n - (d - l) spine points.
        from spinaltri.polytope import Polytope

        p = builder()
        if u is None:
            u = simplotope_with_spine(2, 2)[1].indices
        sp = spine(p, u)
        d, n = p.dim, sp.n
        for f in p.facets():
            assert len(set(u) & set(f.incident)) >= n - 1
            face_poly = Polytope(
                [p.vertices[i] for i in f.incident], p.ambient_dim
            )
            for r in face_poly.facets():
                # ridges are (d-2)-faces, so the bound drops to n - 2
                ridge = {f.incident[j] for j in r.incident}
                assert len(set(u) & ridge) >= n - 2

    def test_simplex_full_spine(self):
        p = simplex(3)
        sp = spine(p, range(4))
        for f in p.facets():
            assert face_spine(sp, f) == f.incident

    def test_simplotope_22(self):
        p, sp = simplotope_with_spine(2, 2)
        for f in p.facets():
            assert len(face_spine(sp, f)) == 2


class TestEnumerateSpines:
    def test_square_diagonals(self):
        # Binary-order square: 0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1).
        assert enumerate_spines(cube(2), 2) == [(0, 3), (1, 2)]

    def test_cube_antipodal_pairs(self):
        assert enumerate_spines(cube(3), 2) == [(0, 7), (1, 6), (2, 5), (3, 4)]

    def test_triangle_edges_and_full(self):
        got = enumerate_spines(simplex(2), 2)
        assert got == [(0, 1), (0, 1, 2), (0, 2), (1, 2)]

    def test_size_guard(self):
        p = cube(3)
        with pytest.raises(PolytopeError, match="exceed the enumeration cap"):
            enumerate_spines(p, 1, max_vertices=4)

    def test_size_guard_comes_before_min_size(self):
        with pytest.raises(PolytopeError, match="exceed the enumeration cap"):
            enumerate_spines(cube(3), 0, max_vertices=4)
        with pytest.raises(SpineError, match="min_size must be at least 1"):
            enumerate_spines(cube(3), 0)

    def test_min_size_above_vertex_count(self):
        assert enumerate_spines(cube(2), 5) == []

    def test_fourcube_pairs_only(self):
        # The 4-cube has no spine of size 3; its pairs are the 8 long diagonals.
        got = enumerate_spines(cube(4), 2)
        assert got == [(i, 15 - i) for i in range(8)]


class TestConflictGraphOracle:
    """The bitmask criterion and the conflict-graph enumeration against the
    former count-based criterion and combination search."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_enumeration_on_random_polytopes(self, m):
        rng = random.Random(20261018)
        dims = set()
        for _ in range(150):
            p = random_polytope(rng)
            dims.add(p.dim)
            assert enumerate_spines(p, m) == enumerate_spines_by_combinations(p, m)
        assert dims == {2, 3, 4}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_enumeration_on_named_polytopes(self, m):
        named = [cube(2), cube(3), cube(4), simplotope_with_spine(2, 2)[0]]
        named += [make_polytope([QVector([2, 3])])]
        named += [make_polytope([QVector([0, 1]), QVector([3, 5])])]
        for p in named:
            assert enumerate_spines(p, m) == enumerate_spines_by_combinations(p, m)

    def test_point_and_segment(self):
        point = make_polytope([QVector([2, 3])])
        segment = make_polytope([QVector([0, 1]), QVector([3, 5])])
        assert enumerate_spines(point, 1) == [(0,)]
        assert enumerate_spines(point, 2) == []
        assert enumerate_spines(segment, 1) == [(0,), (0, 1), (1,)]

    def test_is_spine_on_every_subset(self):
        for name, p in small_instances():
            n = p.n_vertices
            for size in range(1, n + 1):
                for combo in itertools.combinations(range(n), size):
                    assert is_spine(p, combo) == is_spine_counting(p, combo), (name, combo)

    @pytest.mark.parametrize("bad", [set(), {-1}, {0, 4}, {9}])
    def test_same_errors(self, bad):
        p = cube(2)
        with pytest.raises(SpineError) as want:
            is_spine_counting(p, bad)
        with pytest.raises(SpineError) as got:
            is_spine(p, bad)
        assert str(got.value) == str(want.value)
