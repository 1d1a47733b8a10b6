"""Exact rational LP feasibility via a two-phase simplex with Bland's rule.

Only feasibility is offered, no objective.  Strict inequalities are handled
by a gap variable eps: every strict row ``a.x < b`` becomes ``a.x + eps <= b``
and the system is strictly feasible iff sup eps > 0 (eps is capped at 1 to
keep the second phase bounded).  Bland's pivoting rule guarantees
termination on degenerate instances.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import DimensionError

LE = "<="
LT = "<"
EQ = "="

_REL_ALIASES = {"<=": LE, "=<": LE, "≤": LE, "<": LT, "=": EQ, "==": EQ}


def _pivot(tab: list[list[Fraction]], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    pivoted = tab[row]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [a - f * b for a, b in zip(r, pivoted)]


def _simplex_min(
    tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> tuple[Fraction | None, str]:
    """Minimize cost over {y >= 0, tableau rows}; tableau starts basic-feasible.

    Returns (objective, "optimal") or (None, "unbounded").  Entering rule:
    smallest index with negative reduced cost; leaving rule: smallest basis
    index among minimum ratios (Bland).
    """
    m = len(tab)
    n = len(cost)
    while True:
        cb = [cost[b] for b in basis]
        enter = -1
        for j in range(n):
            zj = cost[j]
            for i in range(m):
                if cb[i] != 0 and tab[i][j] != 0:
                    zj -= cb[i] * tab[i][j]
            if zj < 0:
                enter = j
                break
        if enter < 0:
            obj = Fraction(0)
            for i in range(m):
                if cb[i] != 0:
                    obj += cb[i] * tab[i][-1]
            return obj, "optimal"
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            aij = tab[i][enter]
            if aij > 0:
                ratio = tab[i][-1] / aij
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return None, "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter


def lp_feasible(constraints) -> bool:
    """Exact feasibility of a system of rational linear constraints.

    ``constraints`` is an iterable of ``(coefficients, bound, relation)``
    with relation one of ``<=``, ``<``, ``=``.  Returns True iff some
    rational point satisfies every constraint.  Rows of the shape
    ``-x_i <= 0`` are absorbed as sign restrictions so that callers passing
    barycentric-coordinate systems do not pay for split variables.
    """
    cons: list[tuple[list[Fraction], Fraction, str]] = []
    dim: int | None = None
    for coeffs, bound, rel in constraints:
        a = [Fraction(c) for c in coeffs]
        try:
            rel = _REL_ALIASES[rel]
        except KeyError:
            raise ValueError(f"unknown relation {rel!r}") from None
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            raise DimensionError("constraint vectors of mixed dimension")
        cons.append((a, Fraction(bound), rel))
    if dim is None or dim == 0:
        # Empty variable space: constraints degenerate to "0 rel b".
        for a, b, rel in cons:
            lhs = Fraction(0)
            if (rel == EQ and lhs != b) or (rel == LE and lhs > b) or (
                rel == LT and lhs >= b
            ):
                return False
        return True

    nonneg = [False] * dim
    kept: list[tuple[list[Fraction], Fraction, str]] = []
    for a, b, rel in cons:
        nz = [j for j, c in enumerate(a) if c != 0]
        if b == 0 and len(nz) == 1 and a[nz[0]] < 0 and rel in (LE, LT):
            nonneg[nz[0]] = True
            if rel == LE:
                continue  # pure sign restriction, carried by the variable
        kept.append((a, b, rel))

    has_strict = any(rel == LT for _, _, rel in kept)

    # Column layout: per variable one column (nonneg) or a +/- pair (free),
    # then eps, then slacks.  Artificials are appended by the phase-1 setup.
    col_count = sum(1 if nonneg[j] else 2 for j in range(dim))
    eps_col = col_count if has_strict else -1
    if has_strict:
        col_count += 1

    rows: list[tuple[list[Fraction], Fraction, str]] = []
    for a, b, rel in kept:
        base = [Fraction(0)] * col_count
        pos = 0
        for j in range(dim):
            base[pos] = a[j]
            pos += 1
            if not nonneg[j]:
                base[pos] = -a[j]
                pos += 1
        if rel == LT:
            base[eps_col] = Fraction(1)
        rows.append((base, b, LE if rel == LT else rel))
    if has_strict:
        cap = [Fraction(0)] * col_count
        cap[eps_col] = Fraction(1)
        rows.append((cap, Fraction(1), LE))

    n_slack = sum(1 for _, _, rel in rows if rel == LE)
    total = col_count + n_slack
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    pending_artificial: list[int] = []
    slack_at = 0
    for base, b, rel in rows:
        row = base + [Fraction(0)] * n_slack + [b]
        if rel == LE:
            row[col_count + slack_at] = Fraction(1)
            slack_col = col_count + slack_at
            slack_at += 1
        else:
            slack_col = -1
        if row[-1] < 0:
            row = [-x for x in row]
            slack_col = -1  # negated slack cannot seed the basis
        if slack_col >= 0:
            basis.append(slack_col)
        else:
            basis.append(-1)
            pending_artificial.append(len(tab))
        tab.append(row)

    n_art = len(pending_artificial)
    if n_art:
        for i, row in enumerate(tab):
            art = [Fraction(0)] * n_art
            row[-1:-1] = art  # insert before rhs
        for k, i in enumerate(pending_artificial):
            tab[i][total + k] = Fraction(1)
            basis[i] = total + k
        cost = [Fraction(0)] * total + [Fraction(1)] * n_art
        obj, status = _simplex_min(tab, basis, cost)
        if status != "optimal":
            raise RuntimeError("phase 1 came out unbounded, but it is bounded below by 0")
        if obj != 0:
            return False
        # Pivot surviving artificials out of the basis; drop redundant rows.
        for i in range(len(tab) - 1, -1, -1):
            if basis[i] >= total:
                enter = next((j for j in range(total) if tab[i][j] != 0), None)
                if enter is None:
                    del tab[i]
                    del basis[i]
                else:
                    _pivot(tab, i, enter)
                    basis[i] = enter
        tab = [row[:total] + row[-1:] for row in tab]

    if not has_strict:
        return True

    cost = [Fraction(0)] * total
    cost[eps_col] = Fraction(-1)  # maximize eps
    obj, status = _simplex_min(tab, basis, cost)
    if status == "unbounded":
        return True
    return -obj > 0
