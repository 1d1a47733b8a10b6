import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaltri.linalg import QVector, det
from spinaltri.polytope import Polytope, PolytopeError, make_polytope
from spinaltri.spine import is_spine
from spinaltri import birkhoff
from spinaltri.birkhoff import (
    BirkhoffError,
    _projected_images,
    _strictly_inside,
    birkhoff_context,
    block_matrix,
    determinant_identities,
    permutation_vector,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from linalg_oracle import QMatrix
from lp_oracle import EQ, LT, fraction_lp_feasible
from test_membership_oracle import lp_extreme_points

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestContext:
    def test_n3_counts(self):
        ctx = birkhoff_context(3)
        assert len(ctx.vertices) == 6
        assert len(ctx.spine_vectors) == 3
        # The spine is the identity and the two cyclic shifts.
        assert ctx.spine_perms == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_n4_counts(self):
        ctx = birkhoff_context(4)
        assert len(ctx.vertices) == 24

    def test_reconstruction_identity(self):
        for n in (3, 4, 5):
            ctx = birkhoff_context(n)
            a, b = QMatrix(ctx.a_map), QMatrix(ctx.b_map)
            for v in map(QVector, ctx.vertices):
                assert b @ (a @ v) + QVector(ctx.a_vec) == v

    def test_truncation_of_identity(self):
        ctx = birkhoff_context(4)
        ident4 = QVector(permutation_vector((0, 1, 2, 3)))
        ident3 = QVector(permutation_vector((0, 1, 2)))
        assert QMatrix(ctx.a_map) @ ident4 == ident3

    def test_out_of_range(self):
        with pytest.raises(BirkhoffError):
            birkhoff_context(1)
        with pytest.raises(BirkhoffError):
            birkhoff_context(6)

    def test_spine_passes_facet_criterion_n3(self):
        ctx = birkhoff_context(3)
        p = make_polytope(list(ctx.vertices))
        assert p.dim == 4
        assert len(p.facets()) == 9
        assert is_spine(p, ctx.spine_vertex_indices)

    def test_truncated_n4_facets(self):
        ctx = birkhoff_context(4)
        p = make_polytope([QMatrix(ctx.a_map) @ QVector(v) for v in ctx.vertices])
        assert p.dim == 9
        fs = p.facets()
        assert len(fs) == 16
        assert all(len(f.incident) == 18 for f in fs)


def is_int_rows(m) -> bool:
    return type(m) is tuple and all(
        type(r) is tuple and all(type(x) is int for x in r) for r in m
    )


def former_permutation_ints(perm) -> list[int]:
    """The former flattening of a permutation matrix, rows concatenated."""
    n = len(perm)
    entries = [0] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = 1
    return entries


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vectors_are_int_tuples(n):
    """Every vector of the context is a tuple of int, each vector family a
    tuple of those, equal entry by entry to the former construction."""
    ctx = birkhoff_context(n)
    for name in ("vertices", "spine_vectors"):
        assert is_int_rows(getattr(ctx, name)), name
    for name in ("a_vec", "b_vec"):
        assert is_int_rows((getattr(ctx, name),)), name
    assert ctx.a_vec == tuple(birkhoff._build_a_vec(n))
    assert ctx.b_vec == tuple(birkhoff._build_b_vec(n))
    for perms, vectors in ((ctx.perms, ctx.vertices), (ctx.spine_perms, ctx.spine_vectors)):
        assert [list(v) for v in vectors] == [former_permutation_ints(q) for q in perms]
    assert is_int_rows((permutation_vector(range(n)),))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_maps_are_int_rows_equal_to_the_former_matrices(n):
    """Each map is a tuple of int row tuples, entry by entry the QMatrix the
    context held before, built from the same builders."""
    ctx = birkhoff_context(n)
    m = n - 1
    want = {
        "a_map": QMatrix(birkhoff._build_a(n), cols=n * n),
        "b_map": QMatrix(birkhoff._build_b(n), cols=m * m),
        "c_map": QMatrix(birkhoff._build_c(n), cols=m * m),
        "d_map": QMatrix(birkhoff._build_d(n), cols=m * m),
        "j_mat": QMatrix([[2 if i == j else 1 for j in range(m)] for i in range(m)], cols=m),
    }
    for name, mat in want.items():
        got = getattr(ctx, name)
        assert is_int_rows(got), name
        assert got == mat.entries, name
        assert all(len(r) == mat.cols for r in got)


def test_volume_relation_has_no_cross_check_switch():
    assert list(inspect.signature(verify_birkhoff_volume_relation).parameters) == ["ctx"]


class TestDeterminants:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_identities(self, n):
        rep = determinant_identities(birkhoff_context(n))
        m = n - 1
        assert rep.det_btb == Fraction(n) ** (2 * m)
        assert rep.det_c_abs == 1
        assert rep.det_j == n
        assert rep.all_ok

    @given(st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(rationals, min_size=k, max_size=k), min_size=k, max_size=k
        ).map(QMatrix)
    ), st.integers(2, 4))
    def test_block_identity_random(self, a, t):
        b = block_matrix(a.entries, t)
        assert det(b) == (t + 1) ** a.rows * det(a.entries) ** t


class TestProjection:
    def test_n2_degenerate(self):
        with pytest.raises(BirkhoffError):
            projected_birkhoff(birkhoff_context(2))

    def test_n3_three_nonzero_images(self):
        ctx = birkhoff_context(3)
        a, c, d = QMatrix(ctx.a_map), QMatrix(ctx.c_map), QMatrix(ctx.d_map)
        images = [d @ (c @ (a @ QVector(v)) + QVector(ctx.b_vec)) for v in ctx.vertices]
        nonzero = [w for w in images if not w.is_zero()]
        assert len(nonzero) == 3
        p = projected_birkhoff(ctx)
        assert p.ambient_dim == 2
        assert p.n_vertices == 3

    def test_n4_golden_vertex_list(self):
        p = projected_birkhoff(birkhoff_context(4))
        got = {tuple(int(x) for x in v) for v in p.vertices}
        assert got == set(GOLDEN_PROJECTED_B4)
        assert len(got) == 20

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vertices_are_the_extreme_images(self, n):
        """The non-spine images, kept by theorem, are the images that
        the former LP extreme_points keeps, in order; n = 5 then fails the
        vertex cap."""
        ctx = birkhoff_context(n)
        images = [QVector(w) for w in _projected_images(ctx)]
        ext = lp_extreme_points(images)
        spine_set = set(ctx.spine_vertex_indices)
        assert ext == [v for i, v in enumerate(images) if i not in spine_set]
        if n == 5:
            with pytest.raises(PolytopeError, match="115 vertices exceed"):
                projected_birkhoff(ctx)
        else:
            assert list(projected_birkhoff(ctx).vertices) == ext

    def test_spine_images_vanish(self):
        ctx = birkhoff_context(4)
        a, c, d = QMatrix(ctx.a_map), QMatrix(ctx.c_map), QMatrix(ctx.d_map)
        for i in ctx.spine_vertex_indices:
            img = d @ (c @ (a @ QVector(ctx.vertices[i])) + QVector(ctx.b_vec))
            assert img.is_zero()

    @pytest.mark.parametrize("n", [3, 4])
    def test_strictly_inside_agrees_with_the_lp(self, n):
        """The origin and a rational interior point, a vertex, twice a vertex
        (outside), and a facet's vertex centroid (on the boundary, no
        vertex)."""
        p = projected_birkhoff(birkhoff_context(n))
        v0, v1 = p.vertices[:2]
        incident = p.facets()[0].incident
        centroid = sum((p.vertices[i] for i in incident), QVector.zero(p.ambient_dim))
        centroid = centroid * Fraction(1, len(incident))
        assert centroid not in p.vertices
        probes = [
            (QVector.zero(p.ambient_dim), True),
            ((v0 + v1) * Fraction(1, 3), True),
            (v0, False),
            (v0 * 2, False),
            (centroid, False),
        ]
        for x, inside in probes:
            assert _strictly_inside(x, p) == lp_strictly_inside(x, p) == inside, x
        assert _strictly_inside((0,) * p.ambient_dim, p)

    @pytest.mark.parametrize("n", [3, 4])
    def test_repositioned_spine_keeps_the_context_indices(self, n):
        """The former Fraction reposition C(A v) + b agrees with the integer
        one, and the former lookup of each repositioned spine vector among
        the repositioned polytope's vertices gives the context's indices."""
        ctx = birkhoff_context(n)
        a, c = QMatrix(ctx.a_map), QMatrix(ctx.c_map)

        def reposition(v):
            return c @ (a @ QVector(v)) + QVector(ctx.b_vec)

        moved = [reposition(v) for v in ctx.vertices]
        assert [QVector(birkhoff._reposition(ctx, v)) for v in ctx.vertices] == moved
        index_of = {v: i for i, v in enumerate(make_polytope(moved).vertices)}
        got = tuple(index_of[reposition(u)] for u in ctx.spine_vectors)
        assert got == ctx.spine_vertex_indices


def lp_strictly_inside(x: QVector, p: Polytope) -> bool:
    """The former birkhoff._strictly_inside, kept as an oracle."""
    # x is in the relative interior iff it is a strictly positive convex
    # combination of all vertices.
    nv = p.n_vertices
    cons = []
    for i in range(nv):
        row = [Fraction(0)] * nv
        row[i] = Fraction(-1)
        cons.append((row, Fraction(0), LT))
    cons.append(([1] * nv, Fraction(1), EQ))
    for c in range(p.ambient_dim):
        cons.append(([v[c] for v in p.vertices], x[c], EQ))
    return fraction_lp_feasible(cons)


# The projected polytope for n = 4 lives in R^6; reading each vector as a
# 2 x 3 matrix row by row gives the published list.
GOLDEN_PROJECTED_B4 = [
    (0, 0, 0, 0, 0, -1),
    (0, -1, 1, 0, 1, 0),
    (0, -1, 1, 0, 0, 0),
    (0, -1, 0, 0, 1, 0),
    (0, -1, 0, 0, 0, 1),
    (1, 0, -1, 0, -1, 1),
    (1, 0, -1, 0, -1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, -1, 1, 0, 0),
    (0, 0, -1, 0, 0, 1),
    (1, 0, 0, -1, 0, 0),
    (1, 0, 0, -1, -1, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 1, 0, -1, 0, -1),
    (0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, -1, 1),
    (-1, 1, 0, 1, 0, -1),
    (-1, 1, 0, 0, 0, 0),
    (-1, 0, 1, 1, 0, 0),
    (-1, 0, 1, 0, 1, 0),
]


class TestVolumeRelation:
    def test_n3(self):
        rep = verify_birkhoff_volume_relation(birkhoff_context(3))
        assert rep.relation_ok
        assert rep.cross_check_ok
        assert rep.vol_birkhoff == 9 * rep.vol_ab
        # Frozen values: the truncated polytope triangulates to 1/8, and the
        # projected polygon's 3/2 is independently confirmed by the lattice
        # count oracle in test_volume_oracle.
        assert rep.vol_ab == Fraction(1, 8)
        assert rep.vol_birkhoff == Fraction(9, 8)
        assert rep.vol_projected == Fraction(3, 2)

    def test_guard(self):
        with pytest.raises(BirkhoffError):
            verify_birkhoff_volume_relation(birkhoff_context(5))

    def test_n4(self):
        rep = verify_birkhoff_volume_relation(birkhoff_context(4))
        assert rep.relation_ok
        assert rep.cross_check_ok
        # Normalized volume 352 of the truncated polytope: Beck and Pixton,
        # "The Ehrhart polynomial of the Birkhoff polytope" (DCG 2003).
        assert rep.vol_ab * math.factorial(9) == 352
