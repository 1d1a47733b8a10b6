"""The former eliminations of `spinaltri.linalg`, kept as test oracles.

`int_echelon` now stands behind `rank`, `kernel_basis`, `inverse` and
`int_adjugate`.  Their earlier bodies are kept here verbatim: the
cross-multiplying row echelon of `rank`, the `Fraction` reduced row echelon
`_rref` behind `kernel_basis`, the `Fraction` Gauss-Jordan of `inverse` and
the fraction-free Gauss-Jordan of `int_adjugate` (with `_int_rows`, which
scales each row to integers).  `tests/test_linalg.py` checks the library
against them, and the other oracles use them in place of the library's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from spinaltri.linalg import DimensionError, QMatrix, QVector


def _int_rows(m: QMatrix) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return rows and the accumulated det factor."""
    rows = []
    factor = Fraction(1)
    for row in m.entries:
        mult = math.lcm(*(x.denominator for x in row)) if row else 1
        factor *= mult
        rows.append([int(x * mult) for x in row])
    return rows, factor


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
