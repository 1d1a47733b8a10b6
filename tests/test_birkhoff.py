import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaltri.linalg import QMatrix, QVector, det
from spinaltri.polytope import Polytope, make_polytope
from spinaltri.spine import is_spine
from spinaltri.birkhoff import (
    BirkhoffError,
    _strictly_inside,
    birkhoff_context,
    block_matrix,
    determinant_identities,
    permutation_vector,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from lp_oracle import EQ, LT, fraction_lp_feasible

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
            for v in ctx.vertices:
                assert ctx.b_map @ (ctx.a_map @ v) + ctx.a_vec == v

    def test_truncation_of_identity(self):
        ctx = birkhoff_context(4)
        ident4 = permutation_vector((0, 1, 2, 3))
        ident3 = permutation_vector((0, 1, 2))
        assert ctx.a_map @ ident4 == ident3

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
        p = make_polytope([ctx.a_map @ v for v in ctx.vertices])
        assert p.dim == 9
        fs = p.facets()
        assert len(fs) == 16
        assert all(len(f.incident) == 18 for f in fs)


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
        b = block_matrix(a, t)
        assert det(b) == (t + 1) ** a.rows * det(a) ** t


class TestProjection:
    def test_n2_degenerate(self):
        with pytest.raises(BirkhoffError):
            projected_birkhoff(birkhoff_context(2))

    def test_n3_three_nonzero_images(self):
        ctx = birkhoff_context(3)
        images = [
            ctx.d_map @ (ctx.c_map @ (ctx.a_map @ v) + ctx.b_vec)
            for v in ctx.vertices
        ]
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

    def test_spine_images_vanish(self):
        ctx = birkhoff_context(4)
        for i in ctx.spine_vertex_indices:
            img = ctx.d_map @ (ctx.c_map @ (ctx.a_map @ ctx.vertices[i]) + ctx.b_vec)
            assert img.is_zero()

    @pytest.mark.parametrize("n", [3, 4])
    def test_strictly_inside_agrees_with_the_lp(self, n):
        p = projected_birkhoff(birkhoff_context(n))
        origin = QVector.zero(p.ambient_dim)
        for x, inside in ((origin, True), (p.vertices[0], False)):
            assert _strictly_inside(x, p) == lp_strictly_inside(x, p) == inside


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
