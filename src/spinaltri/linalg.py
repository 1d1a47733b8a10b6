"""Exact rational scalars, vectors, and matrices.

Every quantity downstream (coordinates, determinants, volumes, projection
matrices) lives in Q.  The scalar type is ``fractions.Fraction`` throughout;
floating point never enters the core.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rational = Fraction


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


def format_rational(q) -> str:
    """Render a rational as ``p/q``, or ``p`` when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
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
    """Immutable vector with Fraction entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable) -> None:
        self.entries = tuple(x if type(x) is Fraction else Fraction(x) for x in entries)

    @classmethod
    def zero(cls, dim: int) -> "QVector":
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim: int, i: int) -> "QVector":
        if not 0 <= i < dim:
            raise DimensionError(f"unit index {i} out of range for dim {dim}")
        return cls([1 if j == i else 0 for j in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.entries)

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

    def _require_same_dim(self, other: "QVector") -> None:
        if len(self.entries) != len(other.entries):
            raise DimensionError(
                f"dimension mismatch: {len(self.entries)} vs {len(other.entries)}"
            )

    def __add__(self, other: "QVector") -> "QVector":
        self._require_same_dim(other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        self._require_same_dim(other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def __mul__(self, scalar) -> "QVector":
        c = Fraction(scalar)
        return QVector(c * a for a in self.entries)

    __rmul__ = __mul__

    def dot(self, other: "QVector") -> Fraction:
        self._require_same_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def concat(self, other: "QVector") -> "QVector":
        return QVector(self.entries + other.entries)


class QMatrix:
    """Immutable row-major matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_data: Iterable[Iterable], cols: int | None = None) -> None:
        grid = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in rows_data
        )
        self.rows = len(grid)
        if grid:
            widths = {len(r) for r in grid}
            if len(widths) != 1:
                raise DimensionError("ragged rows in matrix literal")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise DimensionError("explicit column count disagrees with rows")
        else:
            if cols is None:
                raise DimensionError("empty matrix needs an explicit column count")
            self.cols = cols
        self.entries = grid

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_cols(cls, cols: Sequence[QVector], dim: int | None = None) -> "QMatrix":
        if not cols:
            if dim is None:
                raise DimensionError("empty column list needs an explicit row count")
            return cls([[] for _ in range(dim)], cols=0)
        d = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(d)], cols=len(cols))

    def row(self, i: int) -> QVector:
        return QVector(self.entries[i])

    def col(self, j: int) -> QVector:
        return QVector(r[j] for r in self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if isinstance(other, QMatrix):
            return (
                self.rows == other.rows
                and self.cols == other.cols
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.entries
        )
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "QMatrix":
        return QMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shape mismatch in addition")
        return QMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix shape mismatch in subtraction")
        return QMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def scale(self, scalar) -> "QMatrix":
        c = Fraction(scalar)
        return QMatrix([[c * x for x in row] for row in self.entries], cols=self.cols)

    def __matmul__(self, other):
        if isinstance(other, QVector):
            if self.cols != len(other):
                raise DimensionError(
                    f"matrix-vector mismatch: {self.cols} cols vs dim {len(other)}"
                )
            return QVector(
                sum((r[j] * other[j] for j in range(self.cols)), Fraction(0))
                for r in self.entries
            )
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"matrix-matrix mismatch: {self.cols} cols vs {other.rows} rows"
                )
            bt = other.transpose().entries
            return QMatrix(
                [
                    [
                        sum((r[t] * c[t] for t in range(self.cols)), Fraction(0))
                        for c in bt
                    ]
                    for r in self.entries
                ],
                cols=other.cols,
            )
        return NotImplemented


def _int_rows(m: QMatrix) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return rows and the accumulated det factor."""
    rows = []
    factor = Fraction(1)
    for row in m.entries:
        mult = math.lcm(*(x.denominator for x in row)) if row else 1
        factor *= mult
        rows.append([int(x * mult) for x in row])
    return rows, factor


def scaled_ints(points: Sequence[QVector]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The points times the lcm q of all their denominators, and q."""
    q = math.lcm(*(x.denominator for v in points for x in v))
    return tuple(tuple(x.numerator * (q // x.denominator) for x in v) for v in points), q


def int_dot(u: Iterable[int], v: Iterable[int]) -> int:
    return sum(map(operator.mul, u, v))


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


def det(m: QMatrix) -> Fraction:
    """Exact determinant: rows are scaled to integers, then `int_det`."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    mat, factor = _int_rows(m)
    return Fraction(int_det(mat)) / factor


def rank(m: QMatrix) -> int:
    """Exact rank over Q: the number of pivots of the integer echelon."""
    return len(int_echelon(_int_rows(m)[0])[1])


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Rational basis of the null space, one vector per non-pivot column in
    increasing order; empty iff the kernel is trivial.  Pivot row r has d at
    its pivot column, so the vector of a free column reads -row[free] / d."""
    rows, pivots, _, d = int_echelon(_int_rows(m)[0])
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[free], d)
        basis.append(QVector(v))
    return basis


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse; raises on singular input.  With R = q m the integer
    rows, m^-1 = q adj(R) / det R."""
    if m.rows != m.cols:
        raise DimensionError("inverse of non-square matrix")
    ints, q = scaled_ints(m.entries)
    adj, d = int_adjugate(ints)
    return QMatrix([[Fraction(a * q, d) for a in row] for row in adj], cols=m.cols)


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
    if k == 0:
        return Fraction(1)
    ints, q = scaled_ints(points)
    edges = [[a - b for a, b in zip(v, ints[0])] for v in ints[1:]]
    f = math.factorial(k)
    return Fraction(
        int_det([[int_dot(e1, e2) for e2 in edges] for e1 in edges]), q ** (2 * k) * f * f
    )
