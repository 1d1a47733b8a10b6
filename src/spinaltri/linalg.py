"""Exact rational scalars, vectors, and matrices.

Every quantity downstream (coordinates, determinants, volumes, projection
matrices) lives in Q.  The scalar type is ``fractions.Fraction`` throughout;
floating point never enters the core.  A matrix is a sequence of rows, the
library's own ones tuples of ``int`` or ``Fraction`` tuples; all elimination
runs on integer rows by the fraction-free kernels below.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

IntRows = tuple[tuple[int, ...], ...]


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


def format_rational(q) -> str:
    """Render a rational as ``p/q``, or ``p`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


_DIGIT_CHUNK = 10**500


def _decimal(n: int) -> str:
    """The decimal digits of n, of any length.  str(n) refuses more than
    sys.get_int_max_str_digits() digits (at least 640); this writes 500-digit
    chunks instead and leaves that limit, which guards input parsing, alone."""
    head, chunks = abs(n), []
    while head >= _DIGIT_CHUNK:
        head, tail = divmod(head, _DIGIT_CHUNK)
        chunks.append(str(tail).zfill(500))
    chunks.append(str(head))
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


# The most digits a rational read from input may have in its numerator
# (before and after the decimal point) or denominator, and the largest decimal
# exponent in absolute value.  It is the interpreter's default limit on
# reading an integer, and it is checked before any integer is built: "1e400000"
# alone would otherwise be a 400,001-digit integer.
MAX_TOKEN_DIGITS = 4300

# Every string Fraction() reads matches this looser pattern.
_TOKEN = re.compile(
    r"[-+]?(?P<num>[\d_]*)(?:\.(?P<dec>[\d_]*))?"
    r"(?:[eE][-+]?(?P<exp>[\d_]+))?(?:\s*/\s*(?P<den>[\d_]+))?"
)


def _check_token(s: str) -> None:
    """ValueError if the token is past MAX_TOKEN_DIGITS."""
    m = _TOKEN.fullmatch(s)
    if m is None:
        return  # Fraction() refuses it without building an integer
    num, dec, exp, den = ((m[k] or "").replace("_", "") for k in ("num", "dec", "exp", "den"))
    limit = MAX_TOKEN_DIGITS
    for what, digits in (("numerator", len(num) + len(dec)), ("denominator", len(den))):
        if digits > limit:
            raise ValueError(f"{what} of {digits} digits is past the {limit}-digit limit")
    if len(exp) > limit or int(exp or "0") > limit:
        raise ValueError(f"decimal exponent is past the limit of {limit} in absolute value")


def parse_rational(s: str) -> Fraction:
    """The rational a string names, as Fraction() reads it, within
    MAX_TOKEN_DIGITS.  The stripped token must be ASCII with no underscore,
    so that 1_0 or a non-ASCII digit never aliases a plain number."""
    token = s.strip()
    _check_token(token)
    if not token.isascii() or "_" in token:
        raise ValueError(f"{s!r} has an underscore or a non-ASCII character")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def sqrt_rational(q) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QVector:
    """Immutable vector with Fraction entries: the points the library takes
    and returns.  It has no arithmetic; the kernels run on integer tuples."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        self.entries = tuple(x if type(x) is Fraction else Fraction(x) for x in entries)

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls([0] * dim)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, QVector):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "QVector((%s))" % ", ".join(format_rational(x) for x in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)


def scaled_ints(points: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The points (or matrix rows) times the lcm q of all their denominators,
    and q."""
    q = math.lcm(*(x.denominator for v in points for x in v))
    return tuple(tuple(x.numerator * (q // x.denominator) for x in v) for v in points), q


def int_dot(u: Iterable[int], v: Iterable[int]) -> int:
    return sum(map(operator.mul, u, v))


def matvec(rows: Sequence[Sequence], v: Sequence) -> list:
    """The product of the matrix with these rows and the vector v."""
    return [int_dot(r, v) for r in rows]


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 1968): every intermediate is a minor
    of the input, so every division is exact and nothing leaves ``int``."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = mat[k][k]
        row_k = mat[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * mat[n - 1][n - 1]


def int_echelon(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan echelon of an integer matrix of any shape
    (Bareiss 1968; Nakos, Turner and Williams, "Fraction-free algorithms for
    linear and polynomial equations", SIGSAM Bull. 1997).

    Columns are taken left to right, and one with no nonzero entry at or
    below the next pivot row is skipped.  Each pivot step updates every other
    row to (pivot * row - f * pivot_row) // previous pivot, which is exact
    for the same reason as in `int_det`: every entry stays a minor of the
    input.  Returns the rows, the pivot columns, the sign of the row swaps
    and the last pivot d (1 if there is none).  Every pivot entry ends equal
    to d, the rows past the rank are zero, and a square nonsingular M has
    det M = sign * d.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            sign = -sign
        row_r = mat[r]
        pivot = row_r[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(a * pivot - f * b) // prev for a, b in zip(row, row_r)]
        pivots.append(c)
        prev = pivot
    return mat, pivots, sign, prev


def int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a nonsingular integer matrix M: the
    echelon of [M | I] ends as [d I | sign adj(M)] with det M = sign * d."""
    n = len(rows)
    aug, pivots, sign, d = int_echelon(
        [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    )
    if pivots[:n] != list(range(n)):
        raise DimensionError("matrix is singular")
    return [[sign * x for x in row[n:]] for row in aug], sign * d


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows (0 for no rows); DimensionError if ragged."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise DimensionError("ragged rows in matrix literal")
    return widths.pop() if widths else 0


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of rational rows: the rows times
    the lcm q of their denominators go to `int_det`, and det M = det(qM) / q^n."""
    n, cols = len(rows), _width(rows)
    if n != cols:
        raise DimensionError(f"determinant of non-square {n}x{cols} matrix")
    ints, q = scaled_ints(rows)
    return Fraction(int_det(ints), q**n)


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over Q: the number of pivots of the integer echelon."""
    _width(rows)
    return len(int_echelon(scaled_ints(rows)[0])[1])


def kernel_basis(rows: Sequence[Sequence]) -> list[QVector]:
    """Rational basis of the null space, one vector per non-pivot column in
    increasing order; empty iff the kernel is trivial.  Pivot row r has d at
    its pivot column, so the vector of a free column reads -row[free] / d."""
    if not rows:
        raise DimensionError("empty matrix needs an explicit column count")
    cols = _width(rows)
    ech, pivots, _, d = int_echelon(scaled_ints(rows)[0])
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, c in zip(ech, pivots):
            v[c] = Fraction(-row[free], d)
        basis.append(QVector(v))
    return basis


def inverse(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse as Fraction rows; raises on singular input.  With
    R = q M the integer rows, M^-1 = q adj(R) / det R."""
    if _width(rows) != len(rows):
        raise DimensionError("inverse of non-square matrix")
    ints, q = scaled_ints(rows)
    adj, d = int_adjugate(ints)
    return tuple(tuple(Fraction(a * q, d) for a in row) for row in adj)


def gram_sq_volume(points: Sequence[QVector], k: int) -> Fraction:
    """Squared k-volume of the simplex on k+1 points, via the edge Gram matrix.

    Returns det(G)/(k!)^2 with G[i][j] the inner product of edges from
    points[0]; zero iff the points are affinely dependent.  The square is the
    quantity of interest because k-volumes of simplices sitting inside a
    higher-dimensional space are generally irrational while their squares
    stay rational.  The points are scaled once to integers by the lcm q of
    their denominators; the integer Gram matrix is q^2 G, so one division by
    q^(2k) (k!)^2 of its determinant gives the answer.
    """
    if k < 0 or len(points) != k + 1:
        raise DimensionError(f"need {k + 1} points for a {k}-simplex, got {len(points)}")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionError("points of mixed dimension")
    ints, q = scaled_ints(points)
    edges = [[a - b for a, b in zip(v, ints[0])] for v in ints[1:]]
    f = math.factorial(k)
    return Fraction(
        int_det([[int_dot(e1, e2) for e2 in edges] for e1 in edges]), q ** (2 * k) * f * f
    )
