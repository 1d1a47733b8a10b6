"""Cross-check the library's phase-1 simplex against the general rational one.

`spinaltri.lp.lp_feasible` solves only {y >= 0 : A y = b} with `int`
entries, given as a sign row `-y_i <= 0` for every variable and equalities.
On every such system it must give the answer of
`lp_oracle.fraction_lp_feasible` and take its pivots; the oracle may go on
to drive leftover artificials out of a feasible basis, which the library
never does.  Every other system must be refused with `ValueError`, and rows
of mixed width with `DimensionError`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lp_oracle
from lp_oracle import EQ, LE, LT, fraction_lp_feasible, hull_system
from spinaltri import lp
from spinaltri.linalg import DimensionError


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


def prescaled(cons) -> list:
    """Each row times the lcm of its denominators, as plain ints."""
    out = []
    for a, b, rel in cons:
        a, b = [Fraction(c) for c in a], Fraction(b)
        s = math.lcm(b.denominator, *(c.denominator for c in a))
        out.append(([int(c * s) for c in a], int(b * s), rel))
    return out


def is_sign_row(a, b, rel) -> bool:
    nonzero = [c for c in a if c != 0]
    return rel == LE and b == 0 and len(nonzero) == 1 and nonzero[0] < 0


def in_domain(cons) -> bool:
    """Whether lp_feasible takes the system: int entries, only sign rows and
    equalities, and a sign row for every variable."""
    if not cons:
        return True
    signed = {
        next(j for j, c in enumerate(a) if c) for a, b, rel in cons if is_sign_row(a, b, rel)
    }
    return (
        all(type(x) is int for a, b, _ in cons for x in [*a, b])
        and all(rel == EQ or is_sign_row(a, b, rel) for a, b, rel in cons)
        and len(signed) == len(cons[0][0])
    )


def signed_equalities(cons) -> list:
    """The equalities of cons after a sign row for every variable: the
    system lp_feasible takes that is nearest to cons."""
    if not cons:
        return []
    dim = len(cons[0][0])
    signs = [([-1 if k == j else 0 for k in range(dim)], 0, LE) for j in range(dim)]
    return signs + [row for row in cons if row[2] == EQ]


def _check_against_oracle(cons, monkeypatch) -> bool:
    """Both implementations give the same answer by the same (row, column)
    pivots, up to the oracle's drive-out of artificials from a feasible
    basis; returns the answer."""
    new_path: list = []
    old_path: list = []
    new_pivot, old_pivot = lp._pivot, lp_oracle._pivot

    def record_new(tab, row, col, d):
        new_path.append((row, col))
        return new_pivot(tab, row, col, d)

    def record_old(tab, row, col):
        old_path.append((row, col))
        return old_pivot(tab, row, col)

    with monkeypatch.context() as m:
        m.setattr(lp, "_pivot", record_new)
        m.setattr(lp_oracle, "_pivot", record_old)
        answer = lp.lp_feasible(cons)
        assert fraction_lp_feasible(cons) == answer, cons
    if answer:
        assert new_path == old_path[: len(new_path)], cons
    else:
        assert new_path == old_path, cons
    return answer


def _check_domain(cons, monkeypatch) -> bool | None:
    """lp_feasible refuses cons with ValueError iff it is outside its
    system, and otherwise agrees with the oracle; returns the answer, or
    None when refused."""
    if in_domain(cons):
        return _check_against_oracle(cons, monkeypatch)
    with pytest.raises(ValueError):
        lp.lp_feasible(cons)
    return None


def _check_hull_system(cons, monkeypatch) -> bool | None:
    """A barycentric system, prescaled to ints: the oracle's answer and
    pivots when its weights are >= 0, ValueError when they are strict."""
    ints = prescaled(cons)
    if any(rel == LT for _, _, rel in ints):
        with pytest.raises(ValueError):
            lp.lp_feasible(ints)
        return None
    return _check_against_oracle(ints, monkeypatch)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agreement_on_random_systems(seed, monkeypatch):
    """Random mixed systems are refused unless they are the library's
    system; their equalities under a sign row per variable are answered as
    the oracle answers them."""
    rng = random.Random(seed)
    answers, taken = [], []
    for _ in range(700):
        ints = prescaled(random_system(rng))
        taken.append(_check_domain(ints, monkeypatch) is not None)
        answers.append(_check_against_oracle(signed_equalities(ints), monkeypatch))
    assert 0 < sum(answers) < len(answers)
    assert 0 < sum(taken) < len(taken)


@pytest.mark.parametrize("seed", [0, 1])
def test_agreement_on_convex_hull_systems(seed, monkeypatch):
    rng = random.Random(100 + seed)
    answers = [_check_hull_system(random_hull_system(rng), monkeypatch) for _ in range(400)]
    assert 0 < answers.count(True) and 0 < answers.count(False)
    assert None in answers


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
        ints = prescaled(cons)
        _check_domain(ints, mp)
        _check_against_oracle(signed_equalities(ints), mp)


@given(hull_systems())
def test_agreement_hypothesis_convex_hull(cons):
    with pytest.MonkeyPatch.context() as mp:
        _check_hull_system(cons, mp)


# Strict systems whose equalities leave an artificial basic at 0 with only
# negative entries, so that the oracle drives it out on a negative pivot.
# The library has neither strict rows nor a drive-out, and refuses them.
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
    # Rational data.
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
    real_pivot = lp_oracle._pivot

    def record(tab, row, col):
        pivots.append(tab[row][col])
        return real_pivot(tab, row, col)

    monkeypatch.setattr(lp_oracle, "_pivot", record)
    assert fraction_lp_feasible(cons) is expected
    assert any(p < 0 for p in pivots)
    with pytest.raises(ValueError):
        lp.lp_feasible(prescaled(cons))


def test_errors_match_the_oracle():
    cases = [([([1], 0, ">=")], ValueError), ([([-1], 0, LE), ([1, 2], 0, EQ)], DimensionError)]
    for cons, exc in cases:
        for fn in (lp.lp_feasible, fraction_lp_feasible):
            with pytest.raises(exc):
                fn(cons)


# --- the rows lp_feasible takes, and the ones it refuses ----------------------


def as_tuples(cons) -> list:
    return [(tuple(a), b, rel) for a, b, rel in cons]


def as_generators(cons):
    """The system and each of its rows as one-shot generators."""
    return (((c for c in a), b, rel) for a, b, rel in cons)


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
    """Convex-hull systems with weights >= 0 and every row pre-scaled to
    ints, given as lists, tuples and generators: the oracle's answer and
    pivots, on an all-int tableau."""
    rng = random.Random(400 + seed)
    answers = []
    while len(answers) < 300:
        cons = random_hull_system(rng)
        if any(rel == LT for _, _, rel in cons):
            continue
        ints = prescaled(cons)
        answer = _check_against_oracle(ints, monkeypatch)
        assert _check_against_oracle(as_tuples(ints), monkeypatch) == answer
        want = pivot_path(ints)
        assert want[0] == answer
        assert pivot_path(as_generators(ints)) == want
        answers.append(answer)
    assert 0 < sum(answers) < len(answers)


def test_rows_mixing_int_with_fractions_and_bools():
    """Rows with Fraction or bool entries are refused, even where they equal
    ints; the oracle answers them."""
    cases = [
        # x >= 0, y >= 0 given with a bool and a Fraction; x/2 + y = 1, x = 1.
        ([([-1, False], 0, LE), ([Fraction(0), -1], False, LE),
          ([Fraction(1, 2), 1], 1, EQ), ([True, 0], 1, EQ)], True),
        # The same, but x = 3 makes y = -1/2 < 0.
        ([([-1, False], 0, LE), ([Fraction(0), -1], False, LE),
          ([Fraction(1, 2), 1], 1, EQ), ([True, 0], 3, EQ)], False),
        # Integer-valued Fractions and bools only.
        ([([-1, 0], 0, LE), ([0, -1], 0, LE), ([Fraction(2), 1], 2, EQ)], True),
        ([([-1, 0], 0, LE), ([0, -1], 0, LE), ([1, True], 1, EQ)], True),
        ([([-1, 0], 0, LE), ([0, -1], 0, LE), ([1, 1], Fraction(1), EQ)], True),
        ([([-1, 0], 0, LE), ([0, -1], 0, LE), ([1, 1], True, EQ)], True),
    ]
    for cons, expected in cases:
        assert fraction_lp_feasible(cons) is expected
        with pytest.raises(ValueError, match="int entries"):
            lp.lp_feasible(cons)


SIGNS = [([-1, 0], 0, LE), ([0, -1], 0, LE)]

REFUSED = {
    "strict-sign-row": [([-1, 0], 0, LT), ([0, -1], 0, LE), ([1, 1], 1, EQ)],
    "strict-row": SIGNS + [([1, 1], 1, LT)],
    "missing-sign-row": [([-1, 0], 0, LE), ([1, 1], 1, EQ)],
    "no-sign-rows": [([1, 1], 1, EQ)],
    "sign-row-with-bound": [([-1, 0], 1, LE), ([0, -1], 0, LE)],
    "positive-sign-row": [([1, 0], 0, LE), ([0, -1], 0, LE)],
    "two-entry-le-row": SIGNS + [([-1, -1], 0, LE)],
    "bound-le-row": SIGNS + [([1, 1], 2, LE)],
    "zero-le-row": SIGNS + [([0, 0], 0, LE)],
    "unknown-relation": SIGNS + [([1, 1], 1, "==")],
    "fraction-entry": SIGNS + [([Fraction(1, 2), 1], 1, EQ)],
    "fraction-bound": SIGNS + [([1, 1], Fraction(1, 2), EQ)],
    "bool-entry": SIGNS + [([True, 1], 1, EQ)],
    "bool-in-sign-row": [([-1, False], 0, LE), ([0, -1], 0, LE)],
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refuses_rows_outside_its_system(name):
    cons = REFUSED[name]
    assert not in_domain(cons)
    with pytest.raises(ValueError):
        lp.lp_feasible(cons)
    fraction_lp_feasible(cons)  # the general LP takes every one of them


def test_mixed_widths_raise_dimension_error():
    for cons in (SIGNS + [([1, 1, 1], 1, EQ)], [([-1], 0, LE)] + SIGNS):
        with pytest.raises(DimensionError):
            lp.lp_feasible(cons)


def test_systems_without_equalities_or_variables():
    assert lp.lp_feasible([])
    assert lp.lp_feasible(SIGNS)
    assert lp.lp_feasible([([], 0, EQ)])
    assert not lp.lp_feasible([([], 1, EQ)])
    for cons in ([], SIGNS, [([], 0, EQ)], [([], 1, EQ)]):
        assert lp.lp_feasible(cons) == fraction_lp_feasible(cons)
