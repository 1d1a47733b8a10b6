import itertools
from fractions import Fraction

import pytest

from spinaltri import everest
from spinaltri.linalg import QVector, det, QMatrix
from spinaltri.everest import (
    EverestError,
    EverestParams,
    c_constant,
    everest_membership,
    everest_polytope,
    everest_volume,
    g_eval,
    g_eval_detail,
    se_matrix,
    se_square_matrices,
    simplotope_with_spine,
    unit_row,
    vertex_families,
)
from spinaltri.volume import polytope_volume
from linalg_oracle import kernel_basis, rank

GRID = [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestGauge:
    def test_zero(self):
        assert g_eval(EverestParams(2, 2), QVector([0, 0, 0, 0])) == 0

    def test_one_dim_is_absolute_value(self):
        p = EverestParams(1, 1)
        assert g_eval(p, QVector([Fraction(1, 2)])) == Fraction(1, 2)
        assert g_eval(p, QVector([Fraction(-1, 2)])) == Fraction(1, 2)

    def test_vertices_on_unit_level(self):
        for n, s in GRID:
            params = EverestParams(n, s)
            for v in vertex_families(params).everest.points:
                assert g_eval(params, v) == 1

    def test_doubled_vertices_outside(self):
        for n, s in GRID:
            params = EverestParams(n, s)
            for v in vertex_families(params).everest.points:
                assert g_eval(params, 2 * v) > 1
                assert not everest_membership(params, 2 * v)

    def test_membership(self):
        params = EverestParams(2, 2)
        assert everest_membership(params, QVector([0, 0, 0, 0]))
        for v in vertex_families(params).everest.points:
            assert everest_membership(params, v)

    def test_detail_quantities(self):
        params = EverestParams(2, 2)
        d = g_eval_detail(params, QVector([1, 0, Fraction(-1, 2), 0]))
        assert d.column_maxima == (1, 0)
        assert d.row_deficits == (-1, Fraction(1, 2))
        assert d.deficit_max == Fraction(1, 2)
        assert d.value == Fraction(3, 2)

    def test_dimension_checked(self):
        with pytest.raises(Exception):
            g_eval(EverestParams(2, 2), QVector([1, 2, 3]))


def in_minus_family(entries, n, s):
    if any(x not in (-1, 0) for x in entries):
        return False
    return all(sum(1 for j in range(s) if entries[i * s + j] == -1) <= 1 for i in range(n))


def in_one_family(entries, n, s):
    # Characterization: all +1 entries in a single column, that column
    # otherwise 0; rows with a +1 carry at most one -1; rows without a +1
    # carry none.
    if any(x not in (-1, 0, 1) for x in entries):
        return False
    one_cols = {j for i in range(n) for j in range(s) if entries[i * s + j] == 1}
    if len(one_cols) > 1:
        return False
    if not one_cols:
        return all(x == 0 for x in entries)
    col = one_cols.pop()
    for i in range(n):
        row = [entries[i * s + j] for j in range(s)]
        if row[col] == 1:
            if sum(1 for x in row if x == -1) > 1:
                return False
        elif row[col] == 0:
            if any(x != 0 for x in row):
                return False
        else:
            return False
    return True


class TestPatternCap:
    """vertex_families refuses (s+1)^(n+1) > MAX_SIGN_PATTERNS before it
    builds a single pattern; no oversized family is generated here."""

    @pytest.fixture
    def no_patterns(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sign pattern was built")

        monkeypatch.setattr(everest, "unit_row", refuse)

    @pytest.mark.parametrize("n,s", [(3, 3), (2, 2), (1, 1)])
    def test_refused_just_over_the_cap(self, n, s, monkeypatch, no_patterns):
        monkeypatch.setattr(everest, "MAX_SIGN_PATTERNS", (s + 1) ** (n + 1) - 1)
        with pytest.raises(EverestError, match="desk-scale cap"):
            vertex_families(EverestParams(n, s))

    @pytest.mark.parametrize("n,s", [(3, 3), (2, 2), (1, 1)])
    def test_admitted_at_the_cap(self, n, s, monkeypatch):
        monkeypatch.setattr(everest, "MAX_SIGN_PATTERNS", (s + 1) ** (n + 1))
        fam = vertex_families(EverestParams(n, s))
        assert len(fam.everest.points) == (s + 1) ** (n + 1) - s - 1

    @pytest.mark.parametrize(
        "n,s", [(12, 1), (6, 3), (5, 4), (1, 64), (12, 12), (10**18, 10**18), (1, 10**100)]
    )
    def test_refused_over_the_module_cap(self, n, s, no_patterns):
        assert (s + 1) ** min(n + 1, 20) > everest.MAX_SIGN_PATTERNS
        with pytest.raises(EverestError, match="desk-scale cap"):
            vertex_families(EverestParams(n, s))

    def test_the_cap_admits_what_the_repository_uses(self):
        # selftest and the tests go up to E(3, 3) and the (n + 1, s)
        # families of E(2, 2); the golden corpus to E(4, 1) and E(1, 4),
        # whose lifting and verify routes build E(5, 1) and E(2, 4).
        for n, s in [(3, 3), (5, 1), (2, 4), (3, 2)]:
            assert (s + 1) ** (n + 1) <= everest.MAX_SIGN_PATTERNS


class TestVertexFamilies:
    @pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)])
    def test_cardinalities(self, n, s):
        fam = vertex_families(EverestParams(n, s))
        assert len(fam.v_minus_one.points) == (s + 1) ** n
        assert len(fam.v_zero.points) == s + 1
        assert len(fam.v_one.points) == s * (s + 1) ** n - s + 1
        assert len(fam.everest.points) == (s + 1) ** (n + 1) - s - 1

    def test_one_one_counts(self):
        fam = vertex_families(EverestParams(1, 1))
        assert len(fam.v_minus_one.points) == 2
        assert len(fam.v_zero.points) == 2
        assert len(fam.v_one.points) == 2
        assert len(fam.everest.points) == 2

    def test_intersection_is_origin(self):
        for n, s in GRID:
            fam = vertex_families(EverestParams(n, s))
            minus = {v.entries for v in fam.v_minus_one.points}
            one = {v.entries for v in fam.v_one.points}
            zero_vec = tuple([Fraction(0)] * (n * s))
            assert minus & one == {zero_vec}
            assert {v.entries for v in fam.v_zero.points} <= minus

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1), (2, 2)])
    def test_sign_pattern_characterizations(self, n, s):
        # The generated families coincide with the direct sign-pattern
        # filters over {-1,0,1}^(n*s).
        fam = vertex_families(EverestParams(n, s))
        grid = list(itertools.product((-1, 0, 1), repeat=n * s))
        minus = {e for e in grid if in_minus_family(e, n, s)}
        one = {e for e in grid if in_one_family(e, n, s)}
        assert {tuple(int(x) for x in v.entries) for v in fam.v_minus_one.points} == minus
        assert {tuple(int(x) for x in v.entries) for v in fam.v_one.points} == one

    def test_unit_row_convention(self):
        assert unit_row(3, 0).is_zero()
        assert unit_row(3, 2) == QVector([0, 1, 0])


class TestEverestPolytope:
    def test_one_one_is_segment(self):
        p = everest_polytope(EverestParams(1, 1))
        assert sorted(v.entries for v in p.vertices) == [(-1,), (1,)]
        assert len(p.facets()) == 2

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1)])
    def test_contains_origin(self, n, s):
        p = everest_polytope(EverestParams(n, s))
        assert p.contains(QVector([0] * (n * s)))

    def test_vertex_counts(self):
        for (n, s), count in [((1, 2), 6), ((2, 1), 6)]:
            p = everest_polytope(EverestParams(n, s))
            assert p.n_vertices == count
            assert p.ambient_dim == n * s

    def test_scale_guard(self):
        with pytest.raises(EverestError):
            everest_polytope(EverestParams(4, 2))


class TestSimplotope:
    def test_square(self):
        p, sp = simplotope_with_spine(2, 1)
        assert {v.entries for v in p.vertices} == {
            (0, 0), (-1, 0), (0, -1), (-1, -1)
        }
        assert len(p.facets()) == 4

    def test_plain_constructor(self):
        from spinaltri.everest import simplotope

        p = simplotope(1, 2)
        assert p.n_vertices == 3 and p.dim == 2

    def test_s22(self):
        p, sp = simplotope_with_spine(2, 2)
        assert p.n_vertices == 9
        assert p.dim == 4
        assert polytope_volume(p).volume == Fraction(1, 4)
        assert len(p.facets()) == 6
        assert sp.n == 3

    def test_s32_facets(self):
        from spinaltri.everest import simplotope

        p = simplotope(3, 2)
        assert p.n_vertices == 27 and p.dim == 6
        fs = p.facets()
        assert len(fs) == 9
        assert all(len(f.incident) == 18 for f in fs)

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1), (2, 2)])
    def test_facet_count(self, n, s):
        p, _ = simplotope_with_spine(n, s)
        assert len(p.facets()) == n * (s + 1)


class TestSETransformation:
    def test_one_one_matrix(self):
        assert se_matrix(EverestParams(1, 1)) == QMatrix([[1, -1]])

    @pytest.mark.parametrize("n,s", GRID)
    def test_kills_single_column_family(self, n, s):
        pi = se_matrix(EverestParams(n, s))
        up = vertex_families(EverestParams(n + 1, s))
        for u in up.v_zero.points:
            assert (pi @ u).is_zero()

    @pytest.mark.parametrize("n,s", GRID)
    def test_image_is_everest_vertex_set(self, n, s):
        params = EverestParams(n, s)
        pi = se_matrix(params)
        up = vertex_families(EverestParams(n + 1, s))
        zero = {u.entries for u in up.v_zero.points}
        images = {
            (pi @ v).entries
            for v in up.v_minus_one.points
            if v.entries not in zero
        }
        expected = {v.entries for v in vertex_families(params).everest.points}
        assert images == expected

    @pytest.mark.parametrize("n,s", GRID)
    def test_kernel_matches_single_column_span(self, n, s):
        pi = se_matrix(EverestParams(n, s))
        basis = kernel_basis(pi)
        up = vertex_families(EverestParams(n + 1, s))
        nonzero = [u for u in up.v_zero.points if not u.is_zero()]
        assert len(basis) == len(nonzero) == s
        stacked = QMatrix([list(v) for v in basis + nonzero], cols=(n + 1) * s)
        assert rank(stacked) == s

    @pytest.mark.parametrize("n,s", GRID)
    def test_square_extension(self, n, s):
        params = EverestParams(n, s)
        pi_tilde, proj = se_square_matrices(params)
        assert proj @ pi_tilde == se_matrix(params)
        assert abs(det(pi_tilde)) == 1
        up = vertex_families(EverestParams(n + 1, s))
        transformed = {(pi_tilde @ u).entries for u in up.v_zero.points}
        expected = {
            (QVector([0] * (n * s)).concat(-unit_row(s, j))).entries
            for j in range(s + 1)
        }
        assert transformed == expected

    @pytest.mark.parametrize("n,s", GRID)
    def test_projection_composition(self, n, s):
        params = EverestParams(n, s)
        pi = se_matrix(params)
        pi_tilde, proj = se_square_matrices(params)
        up = vertex_families(EverestParams(n + 1, s))
        for v in up.v_minus_one.points:
            assert proj @ (pi_tilde @ v) == pi @ v


class TestVolume:
    def test_c_values(self):
        assert c_constant(EverestParams(1, 1)) == 2
        assert c_constant(EverestParams(1, 2)) == 3
        assert c_constant(EverestParams(2, 1)) == 3
        assert c_constant(EverestParams(2, 2)) == Fraction(15, 4)

    @pytest.mark.parametrize("n,s", [(1, 1), (1, 2), (2, 1)])
    def test_hull_matches_formula(self, n, s):
        params = EverestParams(n, s)
        assert everest_volume(params, "hull") == c_constant(params)

    @pytest.mark.parametrize("n,s", [(1, 1), (1, 2), (2, 1)])
    def test_lifting_matches_formula(self, n, s):
        params = EverestParams(n, s)
        assert everest_volume(params, "lifting") == c_constant(params)

    def test_lifting_matches_formula_22(self):
        params = EverestParams(2, 2)
        assert everest_volume(params, "lifting") == Fraction(15, 4)

    def test_unknown_method(self):
        with pytest.raises(EverestError):
            everest_volume(EverestParams(1, 1), "monte-carlo")
