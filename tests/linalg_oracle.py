"""The former `Fraction` matrix layer and eliminations of `spinaltri.linalg`,
kept as test oracles.

`QMatrix` is the library's former matrix class, kept verbatim: the oracles'
own `Fraction` arithmetic, independent of the library's integer kernels.
The library now takes and returns matrices as tuples of rows; tests wrap
those rows in `QMatrix` where they multiply.

`int_echelon` now stands behind `rank`, `kernel_basis`, `inverse` and
`int_adjugate`.  Their earlier bodies are kept here verbatim: the
cross-multiplying row echelon of `rank`, the `Fraction` reduced row echelon
`_rref` behind `kernel_basis`, the `Fraction` Gauss-Jordan of `inverse` and
the fraction-free Gauss-Jordan of `int_adjugate`, and `det` with
`_int_rows`, which scales each row to integers (the library now scales the
whole matrix at once by `scaled_ints`).  `tests/test_linalg.py` checks the library
against them, and the other oracles use them in place of the library's.

`unit`, `concat` and `hull_coords` stand in for helpers the library dropped
once only tests called them: `QVector.unit`, `QVector.concat` and a frame's
hull coordinates over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from spinaltri.linalg import DimensionError, QVector, format_rational, int_det


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


def det(m: QMatrix) -> Fraction:
    """Exact determinant: rows are scaled to integers, then `int_det`."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    mat, factor = _int_rows(m)
    return Fraction(int_det(mat)) / factor


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


def unit(dim: int, i: int) -> QVector:
    """The i-th standard basis vector of Q^dim."""
    if not 0 <= i < dim:
        raise DimensionError(f"unit index {i} out of range for dim {dim}")
    return QVector([1 if j == i else 0 for j in range(dim)])


def concat(u: QVector, v: QVector) -> QVector:
    return QVector(u.entries + v.entries)


def hull_coords(fr) -> tuple[QVector, ...]:
    """A polytope frame's hull coordinates of its vertices over Q:
    ``icoords`` divided by ``scale``."""
    return tuple(QVector([Fraction(x, fr.scale) for x in q]) for q in fr.icoords)
