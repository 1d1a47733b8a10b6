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


def rat(x) -> Fraction:
    """Coerce an int, a string like ``-3/4``, or a Fraction to a Fraction."""
    return Fraction(x)


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


def int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a nonsingular integer matrix M.

    Fraction-free Gauss-Jordan elimination on [M | I]: each step updates
    every other row by (pivot * row - f * pivot_row) // previous pivot, which
    is exact for the same reason as in `int_det`.  The left block ends as
    det(M) I (up to the sign of the row swaps) and the right block as adj(M).
    """
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            raise DimensionError("matrix is singular")
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            sign = -sign
        pivot = aug[k][k]
        row_k = aug[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(a * pivot - f * b) // prev for a, b in zip(aug[i], row_k)]
        prev = pivot
    return [[sign * x for x in row[n:]] for row in aug], sign * prev


def det(m: QMatrix) -> Fraction:
    """Exact determinant: rows are scaled to integers, then `int_det`."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    mat, factor = _int_rows(m)
    return Fraction(int_det(mat)) / factor


def rank(m: QMatrix) -> int:
    """Exact rank over Q by integer row echelon with cross-multiplication."""
    mat, _ = _int_rows(m)
    rows, cols = m.rows, m.cols
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, rows):
            f = mat[i][c]
            if f == 0:
                continue
            row_i = mat[i]
            row_r = mat[r]
            for j in range(c, cols):
                row_i[j] = row_i[j] * piv - f * row_r[j]
        r += 1
        if r == rows:
            break
    return r


def _rref(m: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    mat = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        mat[r] = [x / piv for x in mat[r]]
        for i in range(m.rows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return mat, pivots


def kernel_basis(m: QMatrix) -> list[QVector]:
    """Rational basis of the null space; empty iff the kernel is trivial."""
    rref, pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][free]
        basis.append(QVector(v))
    return basis


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    if m.rows != m.cols:
        raise DimensionError("inverse of non-square matrix")
    n = m.rows
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m.entries)]
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if aug[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise DimensionError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return QMatrix([row[n:] for row in aug], cols=n)


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
