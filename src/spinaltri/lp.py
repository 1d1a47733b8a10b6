"""Exact LP feasibility via a fraction-free two-phase simplex with Bland's rule.

Only feasibility is offered, no objective.  Strict inequalities are handled
by a gap variable eps: every strict row ``a.x < b`` becomes ``a.x + eps <= b``
and the system is strictly feasible iff sup eps > 0 (eps is capped at 1 to
keep the second phase bounded).  Bland's pivoting rule guarantees
termination on degenerate instances.

The pivoting is integer-preserving (Edmonds, "Systems of distinct
representatives and linear algebra", J. Res. NBS 1967; the scheme of Avis's
lrs).  Each row is scaled to integers once; the tableau, objective row
included, is then ``int`` entries over one common denominator D > 0, the
magnitude of the basis determinant, and a pivot on p divides exactly by the
old D before D becomes p.  Scaling row i by s_i also scales its slack or
artificial variable by s_i; phase-1 costs of L / s_i undo that, so the pivot
path is the one of the rational tableau.  A row whose bound and coefficients
are all ``int`` is read as it is, with scale 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .linalg import DimensionError

LE = "<="
LT = "<"
EQ = "="

_REL_ALIASES = {"<=": LE, "=<": LE, "≤": LE, "<": LT, "=": EQ, "==": EQ}
_EXACT = (int, Fraction)  # read as they are: both carry numerator and denominator
_INT = {int}


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


def _simplex_min(tab: list[list[int]], basis: list[int], d: int) -> tuple[int, bool]:
    """Minimize over {y >= 0, tableau rows}; tableau starts basic-feasible.

    ``tab[-1]`` is the objective row: D times the reduced costs, then D times
    minus the objective.  Returns (D, bounded).  Entering rule: smallest
    index with negative reduced cost; leaving rule: smallest basis index
    among minimum ratios (Bland), compared by cross-multiplication.
    """
    m = len(tab) - 1
    while True:
        cost = tab[-1]
        enter = next((j for j in range(len(cost) - 1) if cost[j] < 0), -1)
        if enter < 0:
            return d, True
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
        if leave < 0:
            return d, False
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter


def lp_feasible(constraints) -> bool:
    """Exact feasibility of a system of rational linear constraints.

    ``constraints`` is an iterable of ``(coefficients, bound, relation)``
    with relation one of ``<=``, ``<``, ``=``.  Returns True iff some
    rational point satisfies every constraint.  Rows of the shape
    ``-x_i <= 0`` are absorbed as sign restrictions so that callers passing
    barycentric-coordinate systems do not pay for split variables.  A row
    whose bound and coefficients are all ``int`` (not ``bool``) is read as
    it is, with scale 1; any other row is scaled to integers by the lcm of
    its denominators.
    """
    cons: list[tuple[list[int], int, int, str]] = []
    dim: int | None = None
    for coeffs, bound, rel in constraints:
        a = list(coeffs)
        if type(bound) is int and set(map(type, a)) <= _INT:
            b, s = bound, 1
        else:
            a = [c if type(c) in _EXACT else Fraction(c) for c in a]
            b = bound if type(bound) in _EXACT else Fraction(bound)
            # Scale the row by s, the lcm of its denominators, to integers.
            s = lcm(b.denominator, *(x.denominator for x in a))
            a = [x.numerator * (s // x.denominator) for x in a]
            b = b.numerator * (s // b.denominator)
        try:
            rel = _REL_ALIASES[rel]
        except KeyError:
            raise ValueError(f"unknown relation {rel!r}") from None
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            raise DimensionError("constraint vectors of mixed dimension")
        cons.append((a, b, s, rel))
    if dim is None or dim == 0:
        # Empty variable space: constraints degenerate to "0 rel b".
        for _, b, _, rel in cons:
            if (rel == EQ and b != 0) or (rel == LE and b < 0) or (rel == LT and b <= 0):
                return False
        return True

    nonneg = [False] * dim
    kept: list[tuple[list[int], int, int, str]] = []
    for a, b, s, rel in cons:
        # A sign row: one nonzero coefficient, negative, against bound 0.
        if b == 0 and rel != EQ and a.count(0) == dim - 1 and (low := min(a)) < 0:
            nonneg[a.index(low)] = True
            if rel == LE:
                continue  # pure sign restriction, carried by the variable
        kept.append((a, b, s, rel))

    has_strict = any(rel == LT for *_, rel in kept)

    # Column layout: per variable one column (nonneg) or a +/- pair (free),
    # then eps, then slacks.  Artificials are appended by the phase-1 setup.
    eps_col = sum(1 if nonneg[j] else 2 for j in range(dim))
    col_count = eps_col + has_strict
    if has_strict:
        kept.append(([0] * dim, 1, 1, LT))  # the cap: 0.x + eps <= 1

    n_slack = sum(1 for *_, rel in kept if rel != EQ)
    total = col_count + n_slack
    tab: list[list[int]] = []
    basis: list[int] = []
    slack_at = col_count
    split = not all(nonneg)
    for a, b, s, rel in kept:
        if split:
            row = []
            for j, c in enumerate(a):
                row.extend((c,) if nonneg[j] else (c, -c))
        else:
            row = a.copy()
        if has_strict:
            row.append(s if rel == LT else 0)  # eps, times the row's scale
        row += [0] * n_slack + [b]
        if rel != EQ:
            row[slack_at] = 1
            slack_at += 1
        # A negated slack cannot seed the basis.
        basis.append(slack_at - 1 if rel != EQ and b >= 0 else -1)
        tab.append(row if b >= 0 else [-x for x in row])

    d = 1
    pending_artificial = [i for i, col in enumerate(basis) if col < 0]
    if pending_artificial:
        for row in tab:
            row[-1:-1] = [0] * len(pending_artificial)  # insert before rhs
        # Phase-1 cost of the artificial of row i is L / s_i: the sum of the
        # unscaled artificials, times L.
        big = lcm(*(kept[i][2] for i in pending_artificial))
        weights = [big // kept[i][2] for i in pending_artificial]
        cost = [0] * total + weights + [0]
        for k, i in enumerate(pending_artificial):
            tab[i][total + k] = 1
            basis[i] = total + k
            cost = [c - weights[k] * x for c, x in zip(cost, tab[i])]
        tab.append(cost)
        d, bounded = _simplex_min(tab, basis, d)
        if not bounded:
            raise RuntimeError("phase 1 came out unbounded, but it is bounded below by 0")
        if tab.pop()[-1] != 0:
            return False
        if not has_strict:
            return True  # no phase 2, so leftover artificials may stay
        # Pivot surviving artificials out of the basis; drop redundant rows.
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] >= total:
                enter = next((j for j in range(total) if tab[i][j] != 0), None)
                if enter is None:
                    del tab[i]
                    del basis[i]
                else:
                    d = _pivot(tab, i, enter, d)
                    basis[i] = enter
        tab = [row[:total] + row[-1:] for row in tab]

    if not has_strict:
        return True

    # Maximize eps: cost -1 on eps, so the objective row is -D e_eps plus
    # the row where eps is basic, if any.
    cost = [0] * (total + 1)
    cost[eps_col] = -d
    if eps_col in basis:
        cost = [c + x for c, x in zip(cost, tab[basis.index(eps_col)])]
    tab.append(cost)
    d, bounded = _simplex_min(tab, basis, d)
    return not bounded or tab[-1][-1] > 0
