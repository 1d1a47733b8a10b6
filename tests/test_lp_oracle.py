"""Cross-check the fraction-free simplex against the former rational one.

`fraction_lp_feasible` is the library's former `lp_feasible`, kept verbatim
with its helpers: the same two-phase Bland simplex, pivoting on `Fraction`
entries.  `spinaltri.lp.lp_feasible` must give the same answer on every
system and take the same pivots, except that it stops before driving out
leftover artificials when no strict row needs a second phase.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaltri import lp
from spinaltri.linalg import DimensionError
from spinaltri.lp import _REL_ALIASES, EQ, LE, LT


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


def fraction_lp_feasible(constraints) -> bool:
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


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 9))


def random_system(rng: random.Random) -> list:
    """Mixed <=, < and = rows over 1 to 4 variables: sign rows (absorbed or
    strict), zero rows, repeated and contradictory equalities, and
    coefficients with denominators up to 9."""
    dim = rng.randint(1, 4)
    cons = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.2:
            a = [0] * dim
            a[rng.randrange(dim)] = -1
            cons.append((a, 0, rng.choice([LE, LT])))
        elif kind < 0.25:
            cons.append(([0] * dim, _random_rational(rng), rng.choice([LE, LT, EQ])))
        else:
            a = [_random_rational(rng) if rng.random() < 0.7 else 0 for _ in range(dim)]
            b = _random_rational(rng)
            cons.append((a, b, rng.choice([LE, LT, EQ, LE, LT])))
            if rng.random() < 0.1:
                cons.append((a, b, EQ))  # repeated equality
            elif rng.random() < 0.1:
                cons.append((a, b + 1, EQ))  # contradictory equality
    return cons


def hull_system(point, hull_points, strict: bool = False) -> list:
    """The system of `polytope._in_convex_hull` (weights >= 0, or > 0 when
    strict, summing to 1 and reproducing the point)."""
    n = len(hull_points)
    cons = []
    for i in range(n):
        coeff = [0] * n
        coeff[i] = -1
        cons.append((coeff, 0, LT if strict else LE))
    cons.append(([1] * n, 1, EQ))
    for c in range(len(point)):
        cons.append(([p[c] for p in hull_points], point[c], EQ))
    return cons


def random_hull_system(rng: random.Random) -> list:
    dim = rng.randint(1, 4)
    pts = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(rng.randint(1, 9))
    ]
    if rng.random() < 0.5:
        x = pts.pop(rng.randrange(len(pts))) if len(pts) > 1 else pts[0]
    else:
        x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(dim))
    return hull_system(x, pts, strict=rng.random() < 0.25)


def _check_against_oracle(cons, monkeypatch) -> bool:
    """Both implementations give the same answer by the same (row, column)
    pivots; returns the answer."""
    new_path: list = []
    old_path: list = []
    new_pivot, old_pivot = lp._pivot, _pivot

    def record_new(tab, row, col, d):
        new_path.append((row, col))
        return new_pivot(tab, row, col, d)

    def record_old(tab, row, col):
        old_path.append((row, col))
        return old_pivot(tab, row, col)

    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", record_new)
        m.setattr(f"{__name__}._pivot", record_old)
        answer = lp.lp_feasible(cons)
        assert fraction_lp_feasible(cons) == answer, cons
    if answer and not any(rel == LT for _, _, rel in cons):
        # No second phase: leftover artificials are not driven out.
        assert new_path == old_path[: len(new_path)], cons
    else:
        assert new_path == old_path, cons
    return answer


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agreement_on_random_systems(seed, monkeypatch):
    rng = random.Random(seed)
    answers = [_check_against_oracle(random_system(rng), monkeypatch) for _ in range(700)]
    assert 0 < sum(answers) < len(answers)


@pytest.mark.parametrize("seed", [0, 1])
def test_agreement_on_convex_hull_systems(seed, monkeypatch):
    rng = random.Random(100 + seed)
    systems = [random_hull_system(rng) for _ in range(400)]
    answers = [_check_against_oracle(cons, monkeypatch) for cons in systems]
    assert 0 < sum(answers) < len(answers)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def systems(draw):
    dim = draw(st.integers(1, 3))
    row = st.tuples(
        st.lists(rationals, min_size=dim, max_size=dim),
        rationals,
        st.sampled_from([LE, LT, EQ]),
    )
    sign = st.tuples(st.integers(0, dim - 1), st.sampled_from([LE, LT]))
    cons = draw(st.lists(row, max_size=6))
    for j, rel in draw(st.lists(sign, max_size=dim)):
        a = [0] * dim
        a[j] = -1
        cons.append((a, 0, rel))
    return draw(st.permutations(cons))


@st.composite
def hull_systems(draw):
    dim = draw(st.integers(1, 4))
    point = st.lists(rationals, min_size=dim, max_size=dim)
    hull = draw(st.lists(point, min_size=1, max_size=9))
    return hull_system(draw(point), hull, draw(st.booleans()))


@given(systems())
def test_agreement_hypothesis_mixed(cons):
    with pytest.MonkeyPatch.context() as mp:
        _check_against_oracle(cons, mp)


@given(hull_systems())
def test_agreement_hypothesis_convex_hull(cons):
    with pytest.MonkeyPatch.context() as mp:
        _check_against_oracle(cons, mp)


# Strict systems whose equalities leave an artificial basic at 0 with only
# negative entries, so that driving it out pivots on a negative entry.
NEGATIVE_PIVOT_CASES = {
    # x, y >= 0 and -x - y = 0 force the origin, which meets x < 1.
    "origin-meets-strict": (
        [([-1, 0], 0, LE), ([0, -1], 0, LE), ([-1, -1], 0, EQ), ([1, 0], 1, LT)],
        True,
    ),
    # The same equality forbids x > 0.
    "origin-misses-strict": (
        [([-1, 0], 0, LT), ([0, -1], 0, LE), ([-1, -1], 0, EQ)],
        False,
    ),
    # Repeated: one copy is driven out on a negative pivot, the other is
    # left all zero and dropped.
    "repeated-equality": (
        [
            ([-1, 0], 0, LE),
            ([0, -1], 0, LE),
            ([-1, -1], 0, EQ),
            ([-2, -2], 0, EQ),
            ([0, 1], 1, LT),
        ],
        True,
    ),
    # Rational data: the rows are scaled by their lcm before pivoting.
    "rational-scaled": (
        [
            ([-1, 0, 0], 0, LE),
            ([0, -1, 0], 0, LE),
            ([Fraction(-1, 3), Fraction(-1, 2), 0], 0, EQ),
            ([0, 0, Fraction(2, 7)], Fraction(1, 5), LT),
            ([0, 0, -1], 0, LT),
        ],
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_PIVOT_CASES))
def test_negative_pivot_drives_out_an_artificial(name, monkeypatch):
    cons, expected = NEGATIVE_PIVOT_CASES[name]
    pivots: list = []
    real_pivot = lp._pivot

    def record(tab, row, col, d):
        pivots.append(tab[row][col])
        return real_pivot(tab, row, col, d)

    monkeypatch.setattr(lp, "_pivot", record)
    assert lp.lp_feasible(cons) is expected
    assert any(p < 0 for p in pivots)
    monkeypatch.undo()
    assert _check_against_oracle(cons, monkeypatch) is expected


def test_errors_match_the_oracle():
    cases = [([([1], 0, ">=")], ValueError), ([([1], 0, LE), ([1, 2], 0, LE)], DimensionError)]
    for cons, exc in cases:
        for fn in (lp.lp_feasible, fraction_lp_feasible):
            with pytest.raises(exc):
                fn(cons)


# --- integer rows, read as they are -------------------------------------------


def prescaled(cons) -> list:
    """Each row times the lcm of its denominators, as plain ints."""
    out = []
    for a, b, rel in cons:
        a, b = [Fraction(c) for c in a], Fraction(b)
        s = math.lcm(b.denominator, *(c.denominator for c in a))
        out.append(([int(c * s) for c in a], int(b * s), rel))
    return out


def as_tuples(cons) -> list:
    return [(tuple(a), b, rel) for a, b, rel in cons]


def as_generators(cons):
    """The system and each of its rows as one-shot generators."""
    return (((c for c in a), b, rel) for a, b, rel in cons)


def mixed(cons, rng: random.Random) -> list:
    """The same integer rows with some entries given as equal Fractions or,
    where they are 0 or 1, as bools."""

    def respell(c):
        r = rng.random()
        if r < 0.2:
            return Fraction(c)
        if r < 0.4 and c in (0, 1):
            return bool(c)
        return c

    return [([respell(c) for c in a], respell(b), rel) for a, b, rel in cons]


def pivot_path(cons) -> tuple[bool, list]:
    """The answer of lp_feasible and its (row, column) pivots; every pivot
    must find a tableau of plain ints."""
    path: list = []
    real_pivot = lp._pivot

    def record(tab, row, col, d):
        assert all(type(x) is int for r in tab for x in r)
        path.append((row, col))
        return real_pivot(tab, row, col, d)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(lp, "_pivot", record)
        answer = lp.lp_feasible(cons)
    return answer, path


@pytest.mark.parametrize("seed", [0, 1])
def test_integer_rows_take_the_oracle_pivots(seed, monkeypatch):
    """Random and convex-hull systems with every row pre-scaled to ints,
    given as lists, tuples and generators, and respelled with Fraction and
    bool entries: the oracle's answer and pivots on that system."""
    rng = random.Random(400 + seed)
    systems = [random_system(rng) for _ in range(200)]
    systems += [random_hull_system(rng) for _ in range(200)]
    answers = []
    for cons in systems:
        ints = prescaled(cons)
        answer = _check_against_oracle(ints, monkeypatch)
        assert _check_against_oracle(as_tuples(ints), monkeypatch) == answer
        want = pivot_path(ints)
        assert want[0] == answer
        assert pivot_path(as_generators(ints)) == want
        respelled = mixed(ints, rng)
        assert _check_against_oracle(respelled, monkeypatch) == answer
        assert pivot_path(respelled) == want
        answers.append(answer)
    assert 0 < sum(answers) < len(answers)


def test_rows_mixing_int_with_fractions_and_bools():
    """Rows that mix int with non-integer Fractions or bools go through the
    scaled intake: exact answers and an all-int tableau."""
    cases = [
        # x >= 0, y >= 0 given with a bool and a Fraction; x/2 + y = 1, x = 1.
        ([([-1, False], 0, LE), ([Fraction(0), -1], False, LE),
          ([Fraction(1, 2), 1], 1, EQ), ([True, 0], 1, EQ)], True),
        # The same, but x = 3 makes y = -1/2 < 0.
        ([([-1, False], 0, LE), ([Fraction(0), -1], False, LE),
          ([Fraction(1, 2), 1], 1, EQ), ([True, 0], 3, EQ)], False),
        # x < 1/3 with x > 1/4, bounds mixing Fraction and int rows.
        ([([3, 0], 1, LT), ([Fraction(-4), True], Fraction(-1), LT),
          ([0, 1], 0, EQ)], True),
        ([([3, 0], 1, LT), ([Fraction(-3), True], Fraction(-1), LT),
          ([0, 1], 0, EQ)], False),
    ]
    for cons, expected in cases:
        assert fraction_lp_feasible(cons) is expected
        assert pivot_path(cons)[0] is expected
