import itertools

import pytest

from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import make_polytope
from spinaltri.spine import (
    SpineError,
    enumerate_spines,
    face_spine,
    is_spine,
    is_spine_geometric,
    spine,
)
from spinaltri.everest import simplotope_with_spine


def cube(d):
    return make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=d)])


def simplex(d):
    pts = [QVector([0] * d)] + [QVector([1 if j == i else 0 for j in range(d)]) for i in range(d)]
    return make_polytope(pts)


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
        with pytest.raises(Exception):
            enumerate_spines(p, 1, max_vertices=4)
