import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinaltri
from spinaltri.birkhoff import block_matrix
from spinaltri.linalg import (
    MAX_TOKEN_DIGITS,
    DimensionError,
    QVector,
    det,
    format_rational,
    gram_sq_volume,
    int_adjugate,
    int_det,
    int_echelon,
    inverse,
    kernel_basis,
    parse_rational,
    rank,
    scaled_ints,
    sqrt_rational,
)

import linalg_oracle as oracle
from linalg_oracle import QMatrix, Vec

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def square_matrix(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(QMatrix)


class TestDet:
    def test_identity(self):
        assert det(QMatrix.identity(3).entries) == 1

    def test_j3_from_block_structure(self):
        # J_n = I_{n-1} + all-ones has determinant n; here n = 3.
        assert det([[2, 1], [1, 2]]) == 3

    def test_permutation_sign(self):
        assert det(((0, 1), (1, 0))) == -1

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert det(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det([[1, 2, 3], [4, 5, 6]])

    @given(square_matrix(3), square_matrix(3))
    def test_multiplicative(self, a, b):
        assert det((a @ b).entries) == det(a.entries) * det(b.entries)

    def test_empty(self):
        assert det([]) == 1


class TestRank:
    def test_zero_matrix(self):
        assert rank(QMatrix.zeros(2, 3).entries) == 0

    def test_identity(self):
        assert rank(QMatrix.identity(4).entries) == 4

    def test_se_transformation_1_2(self):
        # (I_2 | -I_2) row-reduces to two independent rows.
        assert rank([[1, 0, -1, 0], [0, 1, 0, -1]]) == 2

    def test_dependent_rows(self):
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(QMatrix.identity(3).entries) == []

    def test_one_by_two(self):
        (v,) = kernel_basis([[1, 1]])
        assert v[0] * 1 + v[1] * 1 == 0
        assert v[0] != 0  # proportional to (1, -1)
        assert v[1] / v[0] == -1

    @given(
        st.lists(
            st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=3
        ).map(QMatrix)
    )
    def test_rank_nullity_and_membership(self, m):
        basis = kernel_basis(m.entries)
        assert rank(m.entries) + len(basis) == m.cols
        for v in basis:
            assert (m @ v).is_zero()


class TestGramSqVolume:
    def test_cube_diagonal_segment(self):
        # Segment from the origin to (1,1,1): squared length 3.
        pts = [QVector([0, 0, 0]), QVector([1, 1, 1])]
        assert gram_sq_volume(pts, 1) == 3

    def test_standard_triangle(self):
        pts = [QVector([0, 0]), QVector([1, 0]), QVector([0, 1])]
        assert gram_sq_volume(pts, 2) == Fraction(1, 4)

    def test_collinear_degenerate(self):
        pts = [QVector([0, 0]), QVector([1, 1]), QVector([2, 2])]
        assert gram_sq_volume(pts, 2) == 0

    def test_point(self):
        assert gram_sq_volume([QVector([5, 7])], 0) == 1

    @pytest.mark.parametrize(
        "point",
        [(5, -7), (Fraction(1, 3), Fraction(-2, 7)), QVector([5, 7]), QVector([Fraction(9, 4)])],
        ids=["int", "fraction", "qvector-int", "qvector-fraction"],
    )
    def test_point_by_the_general_rule(self, point):
        # One point: an empty edge Gram matrix, int_det([]) = 1, and the
        # divisor q^0 (0!)^2 = 1.
        got = gram_sq_volume([point], 0)
        assert type(got) is Fraction and got == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_mixed_dimension(self, k):
        pts = [(0, 0), (1, 0, 0), (0, 1)][: k + 1]
        with pytest.raises(DimensionError, match="points of mixed dimension"):
            gram_sq_volume(pts, k)

    def test_wrong_count(self):
        with pytest.raises(DimensionError):
            gram_sq_volume([QVector([0]), QVector([1])], 2)

    @given(st.permutations(range(4)))
    def test_permutation_invariant(self, perm):
        pts = [
            QVector([0, 0, 0]),
            QVector([1, 0, 0]),
            QVector([Fraction(1, 2), 1, 0]),
            QVector([Fraction(1, 3), Fraction(1, 5), 2]),
        ]
        base = gram_sq_volume(pts, 3)
        assert gram_sq_volume([pts[i] for i in perm], 3) == base

    def test_isometry_invariant(self):
        # Coordinate swaps and sign flips are exactly representable isometries.
        pts = [QVector([0, 0, 0]), QVector([1, 2, 0]), QVector([0, 1, 5])]
        swapped = [QVector([p[2], p[0], -p[1]]) for p in pts]
        assert gram_sq_volume(pts, 2) == gram_sq_volume(swapped, 2)


def gram_sq_volume_fraction(points, k):
    """Oracle: the former Gram squared volume, with the Gram matrix built
    from Fraction dot products and its determinant taken by `det`."""
    if len(points) != k + 1:
        raise DimensionError(f"need {k + 1} points for a {k}-simplex, got {len(points)}")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionError("points of mixed dimension")
    if k == 0:
        return Fraction(1)
    edges = [Vec(p) - points[0] for p in points[1:]]
    gram = QMatrix([[e1.dot(e2) for e2 in edges] for e1 in edges], cols=k)
    f = math.factorial(k)
    return oracle.det(gram) / (f * f)


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))


class TestGramSqVolumeOracle:
    def test_random_rational_simplices(self):
        rng = random.Random(7718)
        nonzero = 0
        for _ in range(400):
            k = rng.randint(0, 4)
            d = rng.randint(max(k, 1), k + 3)
            pts = [QVector([random_rational(rng) for _ in range(d)]) for _ in range(k + 1)]
            got = gram_sq_volume(pts, k)
            assert got == gram_sq_volume_fraction(pts, k)
            nonzero += got != 0
        assert nonzero > 300

    def test_ambient_dimension_above_k(self):
        rng = random.Random(7719)
        for _ in range(200):
            k = rng.randint(1, 3)
            d = rng.randint(k + 1, k + 4)
            pts = [QVector([random_rational(rng) for _ in range(d)]) for _ in range(k + 1)]
            assert gram_sq_volume(pts, k) == gram_sq_volume_fraction(pts, k)

    def test_affinely_dependent_sets_give_zero(self):
        rng = random.Random(7720)
        for _ in range(200):
            k = rng.randint(1, 4)
            d = rng.randint(1, k + 2)
            pts = [Vec([random_rational(rng) for _ in range(d)]) for _ in range(k)]
            # The last point is an affine combination of the others (or a
            # repeat of one of them when there is only one).
            weights = [random_rational(rng) for _ in range(k - 1)]
            last = pts[0] + sum(
                (w * (q - pts[0]) for w, q in zip(weights, pts[1:])), Vec.zero(d)
            )
            pts.insert(rng.randint(0, k), last)
            assert gram_sq_volume(pts, k) == 0 == gram_sq_volume_fraction(pts, k)

    @pytest.mark.parametrize(
        "points,k",
        [
            ([QVector([0]), QVector([1])], 2),
            ([QVector([0, 1])], 1),
            ([QVector([0, 0]), QVector([1, 0]), QVector([0, 1])], 1),
            ([QVector([0, 0]), QVector([1, 0, 0])], 1),
            ([QVector([0, 0]), QVector([1, 0]), QVector([1, 2, 3])], 2),
            ([], -2),
        ],
    )
    def test_same_dimension_errors(self, points, k):
        with pytest.raises(DimensionError) as want:
            gram_sq_volume_fraction(points, k)
        with pytest.raises(DimensionError) as got:
            gram_sq_volume(points, k)
        assert str(got.value) == str(want.value)

    def test_empty_set_is_no_simplex(self):
        # k = -1 with no points passed the count check; the oracle then
        # failed in math.factorial(-1) with a bare ValueError.  The integer
        # version rejects it up front with a DimensionError (a ValueError).
        with pytest.raises(ValueError):
            gram_sq_volume_fraction([], -1)
        with pytest.raises(DimensionError, match="need 0 points for a -1-simplex"):
            gram_sq_volume([], -1)


def assemble_block_matrix(a: QMatrix, t: int) -> QMatrix:
    """Block grid with 2A on the diagonal and A elsewhere, t block rows."""
    m = a.rows
    rows = []
    for bi in range(t):
        for i in range(m):
            row = []
            for bj in range(t):
                f = 2 if bi == bj else 1
                row.extend(f * x for x in a.entries[i])
            rows.append(row)
    return QMatrix(rows, cols=m * t)


class TestBlockDeterminantIdentity:
    @given(st.integers(1, 3).flatmap(square_matrix), st.integers(2, 4))
    def test_identity_holds(self, a, t):
        b = assemble_block_matrix(a, t)
        assert det(b.entries) == (t + 1) ** a.rows * det(a.entries) ** t

    @given(st.integers(1, 3).flatmap(square_matrix), st.integers(2, 4))
    def test_block_matrix_on_rows(self, a, t):
        rows = block_matrix(a.entries, t)
        assert type(rows) is tuple and all(type(r) is tuple for r in rows)
        assert QMatrix(rows) == assemble_block_matrix(a, t)

    def test_block_matrix_of_int_rows(self):
        assert block_matrix([[1, 2], [3, 4]], 2) == (
            (2, 4, 1, 2), (6, 8, 3, 4), (1, 2, 2, 4), (3, 4, 6, 8)
        )


class TestInverse:
    @given(square_matrix(3))
    def test_roundtrip(self, m):
        if det(m.entries) == 0:
            return
        assert m @ QMatrix(inverse(m.entries)) == QMatrix.identity(3)

    def test_singular_raises(self):
        with pytest.raises(DimensionError):
            inverse([[1, 2], [2, 4]])


class TestIntKernels:
    @given(square_matrix(4))
    def test_int_det_is_det_of_integer_rows(self, m):
        rows = [[int(x * 420) for x in row] for row in m.entries]
        assert int_det(rows) == det(m.entries) * 420**4

    @given(square_matrix(3))
    def test_adjugate(self, m):
        rows = [[int(x * 60) for x in row] for row in m.entries]
        if int_det(rows) == 0:
            with pytest.raises(DimensionError):
                int_adjugate(rows)
            return
        adj, d = int_adjugate(rows)
        assert d == int_det(rows)
        assert QMatrix(rows) @ QMatrix(adj) == QMatrix.identity(3).scale(d)

    def test_empty(self):
        assert int_det([]) == 1
        assert int_adjugate([]) == ([], 1)


# --- the echelon against the former eliminations -------------------------------

# Zero entries are drawn often, and half the matrices are a product through a
# narrower inner dimension, so singular and rank-deficient ones are common.
entries = st.one_of(st.just(Fraction(0)), rationals)


def shaped(r, c):
    return st.lists(
        st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
    ).map(lambda rows: QMatrix(rows, cols=c))


@st.composite
def matrices(draw, square=False):
    r = draw(st.integers(0, 5))
    c = r if square else draw(st.integers(0, 5))
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        return draw(shaped(r, k)) @ draw(shaped(k, c))
    return draw(shaped(r, c))


def int_rows(m):
    return [list(row) for row in scaled_ints(m.entries)[0]]


EDGE_CASES = [
    QMatrix([], cols=0),
    QMatrix([], cols=3),
    QMatrix([[], [], []], cols=0),
    QMatrix.zeros(2, 3),
    QMatrix([[0, 0, 1, 2], [0, 0, 2, 4]]),  # wide, rank 1, leading zero columns
    QMatrix([[1, 2], [2, 4], [0, 0], [3, 6]]),  # tall, rank 1
    QMatrix([[0, 1], [1, 0], [1, 1]]),  # tall, full column rank, a row swap
    QMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),  # square, singular
    QMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]),
]


def check_agreement(m):
    """The library on the rows of m against the oracles on m.  A list of no
    rows cannot carry a column count, so for 0 x k the library has rank 0,
    determinant 1 and inverse () (as for 0 x 0) and no kernel basis."""
    if m.rows == 0:
        assert rank(m.entries) == oracle.rank(m) == 0
        assert det(m.entries) == 1 and inverse(m.entries) == ()
        with pytest.raises(DimensionError, match="empty matrix needs an explicit column count"):
            kernel_basis(m.entries)
        return
    assert rank(m.entries) == oracle.rank(m)
    assert kernel_basis(m.entries) == oracle.kernel_basis(m)
    if m.rows != m.cols:
        with pytest.raises(DimensionError, match="non-square"):
            det(m.entries)
        with pytest.raises(DimensionError, match="non-square"):
            inverse(m.entries)
        return
    assert det(m.entries) == oracle.det(m)
    rows = int_rows(m)
    try:
        want_inv, want_adj = oracle.inverse(m), oracle.int_adjugate(rows)
    except DimensionError:
        with pytest.raises(DimensionError, match="matrix is singular"):
            inverse(m.entries)
        with pytest.raises(DimensionError, match="matrix is singular"):
            int_adjugate(rows)
        return
    got = inverse(m.entries)
    assert all(type(x) is Fraction for row in got for x in row)
    assert got == want_inv.entries
    assert int_adjugate(rows) == want_adj


class TestEchelonAgainstOracles:
    @pytest.mark.parametrize("m", EDGE_CASES, ids=lambda m: f"{m.rows}x{m.cols}")
    def test_edge_cases(self, m):
        check_agreement(m)

    @given(matrices())
    def test_rank_and_kernel(self, m):
        check_agreement(m)

    @given(matrices(square=True))
    def test_inverse_and_adjugate(self, m):
        check_agreement(m)

    def test_seeded_random_matrices(self):
        rng = random.Random(1968)
        singular = 0
        for _ in range(600):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            if rng.random() < 0.5:
                c = r
            k = rng.randint(0, min(r, c))
            a = QMatrix([[random_rational(rng) for _ in range(k)] for _ in range(r)], cols=k)
            b = QMatrix([[random_rational(rng) for _ in range(c)] for _ in range(k)], cols=c)
            m = a @ b if rng.random() < 0.5 else QMatrix(
                [[random_rational(rng) for _ in range(c)] for _ in range(r)], cols=c
            )
            check_agreement(m)
            singular += r == c and rank(m.entries) < r
        assert singular > 50

    @given(matrices())
    def test_echelon_shape(self, m):
        rows = int_rows(m)
        ech, pivots, sign, d = int_echelon(rows)
        assert pivots == sorted(pivots) and len(pivots) == oracle.rank(m)
        for i, row in enumerate(ech):
            if i < len(pivots):
                assert [row[c] for c in pivots] == [d * (j == i) for j in range(len(pivots))]
            else:
                assert not any(row)
        if m.rows == m.cols:
            assert int_det(rows) == (sign * d if len(pivots) == m.rows else 0)


class TestRowInput:
    """The linalg functions take rows: lists or tuples of int or Fraction
    entries.  Malformed shapes raise the errors QMatrix and det raised."""

    def test_no_matrix_class(self):
        assert not hasattr(spinaltri, "QMatrix")
        assert not hasattr(spinaltri.linalg, "QMatrix")

    @pytest.mark.parametrize("f", [det, rank, kernel_basis, inverse])
    def test_ragged_rows(self, f):
        with pytest.raises(DimensionError, match="ragged rows in matrix literal"):
            f([[1, 2], [3]])

    def test_non_square(self):
        with pytest.raises(DimensionError, match="determinant of non-square 2x3 matrix"):
            det([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionError, match="determinant of non-square 3x0 matrix"):
            det([[], [], []])
        with pytest.raises(DimensionError, match="inverse of non-square matrix"):
            inverse([[1, 2, 3], [4, 5, 6]])

    def test_empty_row_list(self):
        with pytest.raises(DimensionError, match="empty matrix needs an explicit column count"):
            kernel_basis([])
        assert rank([]) == 0 and det([]) == 1 and inverse([]) == ()

    def test_lists_tuples_and_vectors_agree(self):
        m = [[1, Fraction(1, 2), 0], [Fraction(-2, 3), 4, 1]]
        for rows in (m, tuple(map(tuple, m)), [QVector(r) for r in m]):
            assert rank(rows) == 2
            assert kernel_basis(rows) == oracle.kernel_basis(QMatrix(m))
        sq = [[1, Fraction(1, 2)], [Fraction(-2, 3), 4]]
        assert det(sq) == Fraction(13, 3)
        assert QMatrix(inverse(sq)) @ QMatrix(sq) == QMatrix.identity(2)


class TestConstruction:
    def test_entries_coerce_as_before(self):
        # int, str and bool entries become Fractions exactly as
        # Fraction(x) makes them; Fraction entries are kept as they are.
        half = Fraction(1, 2)
        raw = [3, "-3/4", True, False, half, "2"]
        want = (Fraction(3), Fraction(-3, 4), Fraction(1), Fraction(0), half, Fraction(2))
        v = QVector(raw)
        m = QMatrix([raw, raw])
        for entries in (v.entries, m.entries[0], m.entries[1]):
            assert entries == want
            assert all(type(x) is Fraction for x in entries)
            assert entries[4] is half
        with pytest.raises(ValueError):
            QVector(["x"])


class TestSerialization:
    def test_format(self):
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(6, 3)) == "2"

    def test_parse_roundtrip(self):
        for s in ["-3/4", "2", "0", "7/5"]:
            assert format_rational(parse_rational(s)) == s


class TestTokenBound:
    """parse_rational refuses a token past MAX_TOKEN_DIGITS before Fraction
    builds any integer; the refusal never names the interpreter's setting."""

    @pytest.mark.parametrize(
        "token,what",
        [
            ("1e400000", "decimal exponent"),
            ("1e-400000", "decimal exponent"),
            ("1e4000000000", "decimal exponent"),
            ("-2.5E+4301", "decimal exponent"),
            ("1e" + "0" * 5000 + "1", "decimal exponent"),
            ("7" * 5000, "numerator of 5000 digits"),
            ("1/" + "7" * 5000, "denominator of 5000 digits"),
            ("7" * 5000 + "/" + "3" * 5000, "numerator of 5000 digits"),
            ("1." + "7" * 4300, "numerator of 4301 digits"),
            ("1_0" * 2200, "numerator of 4400 digits"),
        ],
        ids=lambda x: x if len(x) < 20 else f"{x[:8]}..{len(x)}",
    )
    def test_refused(self, token, what):
        with pytest.raises(ValueError, match=what) as err:
            parse_rational(token)
        assert "set_int_max_str_digits" not in str(err.value)
        assert "\n" not in str(err.value) and len(str(err.value)) < 100

    def test_bound_is_the_interpreter_default(self):
        assert MAX_TOKEN_DIGITS == 4300

    def test_at_the_bound(self):
        assert parse_rational("1e4300") == 10**4300
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)
        big = "7" * 4300
        assert parse_rational(big) == int(big)
        assert parse_rational(f"1/{big}") == Fraction(1, int(big))
        assert parse_rational(" 1.5e-3 ") == Fraction(3, 2000)
        assert parse_rational("-.5") == Fraction(-1, 2)

    @pytest.mark.parametrize(
        "token,alias",
        [("٣", 3), ("３", 3), ("1_0", 10), (" 1_0 ", 10), ("1/٢", Fraction(1, 2)), ("1e1_0", 10**10)],
    )
    def test_aliases_refused(self, token, alias):
        """Fraction() reads these as another spelling of a value; as input
        they are refused, quoted as given."""
        assert Fraction(token) == alias
        with pytest.raises(ValueError) as err:
            parse_rational(token)
        assert str(err.value) == f"{token!r} has an underscore or a non-ASCII character"

    def test_other_errors_unchanged(self):
        with pytest.raises(ValueError, match="zero denominator in ' 1/0'"):
            parse_rational(" 1/0")
        with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
            parse_rational("x")


class TestSqrtRational:
    def test_perfect(self):
        assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)

    def test_irrational(self):
        assert sqrt_rational(3) is None

    def test_negative(self):
        assert sqrt_rational(-1) is None
