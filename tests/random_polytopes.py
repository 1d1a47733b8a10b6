"""The seeded random polytopes of the tests, from one parameterised generator.

`spinaltri.selfcheck._random_polytope` draws the same way for `selftest`
(dims (2, 2, 3, 3, 3), counts(d) = (d + 1, 10), coordinates in -3..3); the
library cannot import from `tests/`, so it keeps its own copy.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from spinaltri.linalg import QVector
from spinaltri.polytope import Polytope, extreme_points, make_polytope


def _half_integer(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 2))


def _default_counts(d: int) -> tuple[int, int]:
    return d + 1, 8 if d < 4 else 7


def random_polytope(
    rng: random.Random,
    dims: Sequence[int] = (2, 3, 4),
    counts: Callable[[int], tuple[int, int]] = _default_counts,
    coord: Callable[[random.Random], object] = _half_integer,
) -> Polytope:
    """A full-dimensional polytope: draw d from dims, a point count in the
    inclusive range counts(d), and that many distinct points whose
    coordinates each come from coord(rng); keep the extreme points, and draw
    again until they span R^d.  The defaults give 3 to 8 points (7 in R^4)
    with coordinates k/1 or k/2 for k in -6..6."""
    while True:
        d = rng.choice(dims)
        count = rng.randint(*counts(d))
        pts = []
        seen = set()
        while len(pts) < count:
            q = tuple(coord(rng) for _ in range(d))
            if q not in seen:
                seen.add(q)
                pts.append(QVector(q))
        ext = extreme_points(pts)
        if len(ext) >= d + 1:
            p = make_polytope(ext)
            if p.dim == d:
                return p
