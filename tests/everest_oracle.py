"""The former `QVector` construction of the Everest vertex families, kept as
the tests' oracle.

`vertex_families` is the library's former body, kept verbatim but for its
signature and its return value: it stacks `QVector` unit rows by `_stack`,
deduplicates the +1 patterns and the Everest vertices in dicts keyed on
`.entries`, and returns the four families as lists of `QVector` in the
order v_minus_one, v_zero, v_one, Everest vertices.  The pattern cap and
the size checks are left to the library.  `spinaltri.everest` now builds
the families directly as integer tuples; `tests/test_everest.py` checks
that both give the same points in the same order.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from spinaltri.linalg import QVector


def unit_row(s: int, j: int) -> QVector:
    """The j-th s-dimensional unit row vector, with unit_row(s, 0) = 0."""
    return QVector([1 if t == j - 1 else 0 for t in range(s)])


def _stack(rows: Sequence[QVector]) -> QVector:
    out: tuple = ()
    for r in rows:
        out = out + r.entries
    return QVector(out)


def vertex_families(n: int, s: int) -> tuple[list[QVector], ...]:
    minus = []
    for js in itertools.product(range(s + 1), repeat=n):
        minus.append(_stack([-unit_row(s, j) for j in js]))
    zero = [_stack([-unit_row(s, j)] * n) for j in range(s + 1)]
    one_set: dict[tuple, QVector] = {}
    for v in minus:
        for u in zero[1:]:
            w = v - u
            one_set.setdefault(w.entries, w)
    one = list(one_set.values())
    ever_set: dict[tuple, QVector] = {}
    for v in minus + one:
        if not v.is_zero():
            ever_set.setdefault(v.entries, v)
    ever = list(ever_set.values())
    return minus, zero, one, ever
