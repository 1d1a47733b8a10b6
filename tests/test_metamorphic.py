"""The paper's identities as relations between answers.

The volume law, cell by cell.  Let s be a cell of a spinal triangulation
of a d-dimensional polytope P along a spine U with k = |U| - 1, and pi s the
folded cell: the origin and the images of s's vertices off U.  With A the
spine's edges from u_0 and W the other edges of s from u_0, the Gram matrix
of [A | W] has determinant det(A^T A) det((pi W)^T pi W), by the Schur
complement, so

    C(d, k)^2 vol(s)^2 = vol(U)^2 vol(pi s)^2

exactly.  Summed over the cells this is the projection volume law, because
`fold` gives a triangulation of the shadow.  Each side is read off cell
determinants: vol(s) on P's frame, vol(pi s) on the shadow's point table
for `star_points`, and vol(U) by `gram_sq_volume`.

Nested spines compose.  Let U be a spine of P and U1 a subset of U that
holds U[0] and spans a face of P (`least_face`), so that the origin is a
vertex of shadow(P, U1).  Orthogonal projections along nested spans
compose, so U2', the origin with the images of U2 = U minus U1, is a spine
of shadow(P, U1), and shadowing along it gives the vertices of
shadow(P, U).  With k, k1 and k2 one less than the sizes of U, U1 and U2',
the Gram determinant of U's edges factors by the Schur complement:

    k!^2 vol(U)^2 = k1!^2 vol(U1)^2 k2!^2 vol(U2')^2.

Unimodular invariance.  An integer map of determinant 1 with an integer
translation keeps volumes and incidences, and the library reads only
those: the facet masks, the spines, the pulling cells of any order, the
spinal cells, the shadows' masks, vol(P) and vol(U)^2 vol(shadow)^2 stay
the same, though vol(U) and vol(shadow) each change.

Call order.  `_star_memo`, a polytope's `_point_table` and a spine's
`_shadow` are memos keyed by identity; the golden corpus, replayed in one
process in a shuffled order, must give every record.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import (
    cell_det, least_face, make_polytope, point_table, vertex_mask
)
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import pulling_triangulation, shadow, spinal_triangulation
from spinaltri.volume import lifting_relation_report, polytope_volume
from random_polytopes import random_polytope
from test_golden_cli import GOLDEN, load_corpus, record
from test_shadow_oracle import cube, named_instances, random_instances, skew_instances


def sq_cell_volume(coords, scale, cell, dim, gram_det):
    """vol^2 of the cell on integer hull coordinates / scale in a frame of
    Gram determinant gram_det."""
    rel = Fraction(cell_det(coords, cell), scale**dim * math.factorial(dim))
    return rel * rel * gram_det


def assert_law_cell_by_cell(sp):
    """The law on every cell of the spine's spinal triangulation; the
    number of cells."""
    p, sm = sp.polytope, shadow(sp)
    d, k = p.dim, sp.n - 1
    fr, shadow_fr = p.frame(), sm.polytope.frame()
    coords, scale = point_table(sm.polytope, sm.star_points)[:2]
    vol_u_sq = gram_sq_volume(sp.points(), k)
    star_of = {g: i for i, g in enumerate(sm.lift_indices) if g >= 0}
    cells = spinal_triangulation(sp).simplices
    for c in cells:
        folded = sorted([0] + [star_of[i] for i in c if i not in sp.indices])
        lhs = math.comb(d, k) ** 2 * sq_cell_volume(fr.icoords, fr.scale, c, d, fr.gram_det)
        rhs = vol_u_sq * sq_cell_volume(coords, scale, folded, d - k, shadow_fr.gram_det)
        assert lhs == rhs != 0, (sp.indices, c)
    return len(cells)


@pytest.mark.parametrize("source", [named_instances, random_instances, skew_instances])
def test_volume_law_holds_cell_by_cell(source):
    cells = sum(
        assert_law_cell_by_cell(spine(p, s)) for name, p in source() for s in enumerate_spines(p, 1)
    )
    assert cells > 2000


def nested_pairs(p):
    """(U, U1) for each spine U of p and each subset U1 of U, of two points
    or more but not all of U, that holds U[0] and spans a face of p."""
    masks, n = p.incidence_masks(), p.n_vertices
    for u in enumerate_spines(p, 3):
        for r in range(1, len(u) - 1):
            for rest in itertools.combinations(u[1:], r):
                u1 = (u[0], *rest)
                if least_face(masks, vertex_mask(u1), n) == vertex_mask(u1):
                    yield u, u1


def assert_nested_spines_compose(p, u, u1):
    sm, sm1 = shadow(spine(p, u)), shadow(spine(p, u1))
    first = sm1.polytope.vertices
    u2 = [first.index(sm1.shadow_points[i]) for i in u if i not in u1[1:]]
    assert not any(first[u2[0]])  # the origin, the image of U1
    sm2 = shadow(spine(sm1.polytope, u2))  # spine() raises unless U2' is one
    assert set(sm2.polytope.vertices) == set(sm.polytope.vertices), (u, u1)
    k, k1, k2 = len(u) - 1, len(u1) - 1, len(u2) - 1
    lhs = math.factorial(k) ** 2 * sm.spine_sq_volume
    rhs = math.factorial(k1) ** 2 * sm1.spine_sq_volume * math.factorial(k2) ** 2
    assert lhs == rhs * sm2.spine_sq_volume, (u, u1)


def nested_instances(count):
    yield cube(3)
    yield cube(4)
    rng = random.Random(20261021)
    for _ in range(count):
        yield random_polytope(rng, (3, 4))


@pytest.mark.parametrize(
    "count,least", [(30, 300), pytest.param(150, 1500, marks=pytest.mark.slow)]
)
def test_nested_spines_compose(count, least):
    pairs = 0
    for p in nested_instances(count):
        for u, u1 in nested_pairs(p):
            assert_nested_spines_compose(p, u, u1)
            pairs += 1
    assert pairs >= least


@st.composite
def unimodular_images(draw):
    """A seeded random polytope, its image under an integer map of
    determinant 1 (a product of row additions) plus an integer translation,
    and a pulling order."""
    p = random_polytope(random.Random(draw(st.integers(0, 2**32))))
    d = p.dim
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    steps = st.tuples(st.integers(0, d - 1), st.integers(1, d - 1), st.integers(-2, 2))
    for i, shift, c in draw(st.lists(steps, max_size=6)):
        j = (i + shift) % d
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    t = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    image = [
        QVector([sum(a * x for a, x in zip(row, v)) + b for row, b in zip(m, t)])
        for v in p.vertices
    ]
    return p, make_polytope(image), draw(st.permutations(range(p.n_vertices)))


def invariants(p, order):
    spines = [spine(p, s) for s in enumerate_spines(p, 1)]
    return (
        set(p.incidence_masks()),
        [s.indices for s in spines],
        [pulling_triangulation(p, o).simplices for o in (None, order)],
        [spinal_triangulation(s).simplices for s in spines],
        [set(shadow(s).polytope.incidence_masks()) for s in spines],
        polytope_volume(p).volume,
        [lifting_relation_report(s).rhs for s in spines],
    )


@settings(max_examples=100)
@given(unimodular_images())
def test_unimodular_maps_keep_what_the_library_reads(case):
    p, image, order = case
    assert invariants(image, order) == invariants(p, order)


def test_the_golden_corpus_replays_in_a_shuffled_order(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("SPINALTRI_MAX_DIM", raising=False)
    corpus = load_corpus()
    random.Random(28).shuffle(corpus)
    changed = [want["argv"] for want in corpus if record(want["argv"]) != want]
    assert not changed, changed[:10]
