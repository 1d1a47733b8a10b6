"""The general LP oracle on strict rows, free variables and bounds.

`lp_oracle.fraction_lp_feasible` is the tests' general LP; these cases pin
it.  `spinaltri.lp.lp_feasible` takes only sign rows and equalities, so it
is checked alongside on the cases of that shape (`tests/test_lp_oracle.py`
has the rest).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lp_oracle import fraction_lp_feasible
from spinaltri import lp

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def test_contradictory_bounds():
    # x <= 1 and x >= 2.
    assert not fraction_lp_feasible([([1], 1, "<="), ([-1], -2, "<=")])


def test_satisfiable_interval():
    assert fraction_lp_feasible([([1], 1, "<="), ([-1], 0, "<=")])


def test_strict_interior_of_triangle():
    cons = [
        ([-1, 0], 0, "<"),
        ([0, -1], 0, "<"),
        ([1, 1], 1, "<"),
    ]
    assert fraction_lp_feasible(cons)


def test_strict_empty():
    assert not fraction_lp_feasible([([1], 0, "<"), ([-1], 0, "<")])


def test_equality_point():
    assert fraction_lp_feasible([([1, 1], 1, "="), ([1, -1], 0, "=")])
    # The same point (1/2, 1/2) with y >= 0: the library's system.
    signs = [([-1, 0], 0, "<="), ([0, -1], 0, "<=")]
    assert lp.lp_feasible(signs + [([1, 1], 1, "="), ([1, -1], 0, "=")])


def test_equality_conflict():
    assert not fraction_lp_feasible([([1], 1, "="), ([1], 2, "=")])
    assert not lp.lp_feasible([([-1], 0, "<="), ([1], 1, "="), ([1], 2, "=")])


def test_degenerate_boundary_not_strict():
    # x >= 0, x <= 0 forces x = 0, so x < 0 strictly is impossible...
    assert not fraction_lp_feasible([([-1], 0, "<="), ([1], 0, "<="), ([1], 0, "<")])
    # ...but the non-strict version is fine.
    assert fraction_lp_feasible([([-1], 0, "<="), ([1], 0, "<=")])


def test_no_constraints():
    assert fraction_lp_feasible([])
    assert lp.lp_feasible([])


def test_unknown_relation():
    for fn in (fraction_lp_feasible, lp.lp_feasible):
        with pytest.raises(ValueError):
            fn([([1], 0, ">=")])


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=6),
       st.lists(rationals, min_size=3, max_size=3))
def test_sound_on_satisfiable_systems(rows, point):
    # Build constraints that the chosen point satisfies by construction.
    cons = []
    for a in rows:
        val = sum(c * x for c, x in zip(a, point))
        cons.append((a, val, "="))
        cons.append((a, val + 1, "<"))
        cons.append((a, val, "<="))
    assert fraction_lp_feasible(cons)


@given(st.lists(rationals, min_size=2, max_size=2))
def test_detects_shifted_equalities(a):
    if all(c == 0 for c in a):
        return
    assert not fraction_lp_feasible([(a, 0, "="), (a, 1, "=")])


def test_strict_needs_room():
    # 0 <= x, x <= 1, 1 <= x strictly below 1 is impossible.
    assert not fraction_lp_feasible([([-1], 0, "<="), ([1], 1, "<"), ([-1], -1, "<=")])


def test_equalities_with_strict_room():
    # Unique solution (1, 0) of the equalities leaves strict room below 2.
    assert fraction_lp_feasible([([1, 1], 1, "="), ([1, -1], 1, "="), ([1, 0], 2, "<")])


def test_equalities_without_strict_room():
    # The same point does not satisfy x < 1 strictly.
    assert not fraction_lp_feasible([([1, 1], 1, "="), ([1, -1], 1, "="), ([1, 0], 1, "<")])


def test_nonneg_fast_path_matches_split_path():
    # Same geometry expressed with and without the -x <= 0 idiom.
    base = [([1, 1], 2, "<="), ([-1, 1], 1, "=")]
    with_signs = base + [([-1, 0], 0, "<="), ([0, -1], 0, "<=")]
    shifted = base + [([-1, 0], 1, "<="), ([0, -1], 1, "<=")]
    assert fraction_lp_feasible(with_signs)
    assert fraction_lp_feasible(shifted)
