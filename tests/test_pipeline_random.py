"""End-to-end randomized checks: every spine of a random small polytope obeys
the volume law and round-trips through fold and lift."""

import random

from spinaltri.selfcheck import _random_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import (
    fold,
    lift,
    shadow,
    spinal_triangulation,
    validate,
)
from spinaltri.volume import verify_lifting_relation
from random_polytopes import random_polytope


def integer(rng: random.Random) -> int:
    return rng.randint(-3, 3)


def test_random_spine_pipelines():
    rng = random.Random(4242)
    checked = 0
    for _ in range(20):
        p = random_polytope(rng, (2, 3), lambda d: (d + 2, 9), integer)
        for idx in enumerate_spines(p, 2):
            sp = spine(p, idx)
            assert verify_lifting_relation(sp)
            sm = shadow(sp)
            t = spinal_triangulation(sp)
            assert validate(t, p)
            assert lift(fold(t, sm), sm).simplices == t.simplices
            checked += 1
    # Most random polytopes in convex position admit at least a few spines
    # (simplex faces etc.); make sure the loop exercised a fair number.
    assert checked >= 20


def test_generator_draws_as_selfcheck():
    # selfcheck keeps its own copy of the generator; with its parameters the
    # tests' one draws the same polytopes from the same seed.
    ours, theirs = random.Random(99), random.Random(99)
    for _ in range(30):
        p = random_polytope(ours, (2, 2, 3, 3, 3), lambda d: (d + 1, 10), integer)
        assert p.vertices == _random_polytope(theirs).vertices
