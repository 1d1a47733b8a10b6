"""Exact feasibility of {y >= 0 : A y = b} by a fraction-free phase-1 simplex.

This is the one LP the library solves: whether an integer point is a convex
combination of others (``polytope._in_convex_hull``).  Rows come as
``(coefficients, bound, relation)``: a sign row ``-y_i <= 0`` for every
variable, and equalities; any other row is refused.  The general LP, with
strict rows and free variables, is the test oracle ``tests/lp_oracle.py``.

Each equality (negated where b < 0) gets an artificial variable, and phase 1
minimizes their sum by Bland's rule, which cannot cycle; the system is
feasible iff the minimum is 0.  The pivoting is integer-preserving (Edmonds,
"Systems of distinct representatives and linear algebra", J. Res. NBS 1967;
the scheme of Avis's lrs): the tableau, objective row included, is ``int``
entries over one common denominator D > 0, the magnitude of the basis
determinant, and a pivot on p divides exactly by the old D before D becomes p.
"""

from __future__ import annotations

from .linalg import DimensionError

LE = "<="
EQ = "="


def _pivot(tab: list[list[int]], row: int, col: int, d: int) -> int:
    """Pivot on (row, col) over denominator d; returns the new denominator.

    T'[i][j] = (T[i][j] p - T[i][col] T[row][j]) / d, exact; the pivot row
    keeps its entries.  A negative pivot negates the tableau, so D stays > 0.
    """
    p = tab[row][col]
    pivoted = tab[row]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [(a * p - f * b) // d for a, b in zip(r, pivoted)]
        elif p != d:
            tab[i] = [a * p // d for a in r]
    if p < 0:
        tab[:] = [[-a for a in r] for r in tab]
        p = -p
    return p


def lp_feasible(constraints) -> bool:
    """Whether some rational y >= 0 satisfies every equality of
    ``constraints``, an iterable of ``(coefficients, bound, relation)``.

    Every variable needs a sign row (one negative coefficient, bound 0,
    relation ``<=``); every other row must be an equality (``=``).  Entries
    must be ``int``, not ``bool``.  Any other row raises ``ValueError``; rows
    of mixed width raise ``DimensionError``.
    """
    rows: list[list[int]] = []
    dim: int | None = None
    signed: set[int] = set()
    for coeffs, bound, rel in constraints:
        a = list(coeffs)
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            raise DimensionError("constraint vectors of mixed dimension")
        if type(bound) is not int or any(type(c) is not int for c in a):
            raise ValueError("lp_feasible takes int entries only")
        if rel == EQ:
            rows.append(a + [bound] if bound >= 0 else [-x for x in a] + [-bound])
        elif rel == LE and bound == 0 and a.count(0) == dim - 1 and (low := min(a)) < 0:
            signed.add(a.index(low))
        else:
            raise ValueError(f"only sign rows and equalities, not {rel!r} row {a}")
    if len(signed) != (dim or 0):
        raise ValueError("every variable needs a sign row -y_i <= 0")
    if not rows:
        return True  # y = 0
    # Columns: the variables, one artificial per row (the starting basis),
    # then the bound.  The objective row is D times the reduced costs of the
    # artificials' sum (minus A's column sums, 0 on the artificials), then D
    # times minus that sum (minus the sum of b).
    m = len(rows)
    tab = [r[:-1] + [int(i == k) for k in range(m)] + r[-1:] for i, r in enumerate(rows)]
    tab.append([-sum(col) for col in zip(*rows)])
    tab[-1][dim:dim] = [0] * m
    basis = list(range(dim, dim + m))
    d = 1
    # Bland's rule: the first column of negative reduced cost enters; among
    # the rows of least ratio, compared by cross-multiplication, the one of
    # least basic index leaves.  The sum is bounded below by 0, so some row
    # always leaves.
    while True:
        cost = tab[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] < 0), -1)
        if enter < 0:
            return cost[-1] == 0
        leave = -1
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * aij
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter
