"""Cross-check the interior-ridge validator against the former pairwise one.

`pairwise_validate_detailed` is the library's former `validate_detailed`,
kept verbatim with its helpers (among them `simplex_relative_volume`, the
former `volume` function that `test_frame_oracle` also uses): after the
same shape, volume and usage checks it compares every pair of cells, first
by the facet planes of each and then by an exact LP for a common interior
point, solved by the general LP oracle `lp_oracle.fraction_lp_feasible`.
It never checks that the points lie in the polytope, so a point set
outside P is the one case on which the two validators may disagree;
everywhere else they must accept and reject the same triangulations.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from spinaltri.linalg import QVector
from spinaltri.polytope import Polytope, PolytopeError, frame_coords, make_polytope
from spinaltri.selfcheck import VALIDATOR_SUITE_INSTANCES, _random_polytope
from spinaltri.triangulation import (
    Triangulation,
    pulling_triangulation,
    validate_detailed,
)
from spinaltri.volume import polytope_relative_volume
from linalg_oracle import QMatrix, det, kernel_basis
from lp_oracle import EQ, LT, fraction_lp_feasible


def simplex_relative_volume(coords: Sequence[QVector]) -> Fraction:
    """|det of edge matrix| / k! for k+1 points given in hull coordinates."""
    k = len(coords) - 1
    if k == 0:
        return Fraction(1)
    edges = QMatrix([list(q - coords[0]) for q in coords[1:]], cols=k)
    d = det(edges)
    return abs(d) / math.factorial(k)


def pairwise_validate_detailed(t: Triangulation, p: Polytope) -> tuple[bool, str]:
    """Exact triangulation validation: full-dimensional cells, volumes summing
    to the polytope volume, pairwise disjoint interiors, every point used."""
    k = p.dim
    n = len(t.points)
    if k == 0:
        if tuple(t.simplices) == ((0,),) and n == 1:
            return True, "ok"
        return False, "a point polytope is triangulated by itself only"
    try:
        coords = [frame_coords(p, q) for q in t.points]
    except PolytopeError:
        return False, "a point lies outside the affine hull of the polytope"
    if not t.simplices:
        return False, "no maximal simplices"
    for c in t.simplices:
        if len(c) != k + 1 or len(set(c)) != k + 1:
            return False, f"cell {c} does not have {k + 1} distinct vertices"
        if any(not 0 <= i < n for i in c):
            return False, f"cell {c} references a missing point"
    rel = []
    for c in t.simplices:
        v = simplex_relative_volume([coords[i] for i in c])
        if v == 0:
            return False, f"cell {c} is degenerate"
        rel.append(v)
    total = sum(rel)
    expected = polytope_relative_volume(p)
    if total != expected:
        return False, f"cell volumes sum to {total}, polytope volume is {expected}"
    used = set(itertools.chain.from_iterable(t.simplices))
    if used != set(range(n)):
        return False, "some points are not vertices of any cell"
    cells = [tuple(coords[i] for i in c) for c in t.simplices]
    planes = [_simplex_planes(cell) for cell in cells]
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if _plane_separated(cells[i], cells[j], planes[i], planes[j]):
                continue
            if _interiors_meet(cells[i], cells[j]):
                return False, (
                    f"cells {t.simplices[i]} and {t.simplices[j]} overlap"
                )
    return True, "ok"


def _simplex_planes(cell: tuple[QVector, ...]):
    """Facet hyperplanes of a nondegenerate k-simplex, oriented so the
    dropped vertex is on the positive side."""
    k = len(cell) - 1
    planes = []
    for drop in range(k + 1):
        rest = [cell[i] for i in range(k + 1) if i != drop]
        edges = QMatrix([list(q - rest[0]) for q in rest[1:]], cols=k)
        (normal,) = kernel_basis(edges)
        offset = normal.dot(rest[0])
        side = normal.dot(cell[drop]) - offset
        if side < 0:
            normal, offset, side = -normal, -offset, -side
        planes.append((normal, offset))
    return planes


def _plane_separated(cell_a, cell_b, planes_a, planes_b) -> bool:
    for normal, offset in planes_a:
        if all(normal.dot(q) <= offset for q in cell_b):
            return True
    for normal, offset in planes_b:
        if all(normal.dot(q) <= offset for q in cell_a):
            return True
    return False


def _interiors_meet(cell_a, cell_b) -> bool:
    """Exact test for a common interior point of two k-simplices in R^k."""
    na, nb = len(cell_a), len(cell_b)
    k = len(cell_a[0])
    total = na + nb
    cons = []
    for i in range(total):
        coeff = [Fraction(0)] * total
        coeff[i] = Fraction(-1)
        cons.append((coeff, Fraction(0), LT))  # strictly positive weights
    cons.append(([1] * na + [0] * nb, Fraction(1), EQ))
    cons.append(([0] * na + [1] * nb, Fraction(1), EQ))
    for c in range(k):
        row = [q[c] for q in cell_a] + [-q[c] for q in cell_b]
        cons.append((row, Fraction(0), EQ))
    return fraction_lp_feasible(cons)


def _verdict(t: Triangulation, p: Polytope) -> tuple[bool, str]:
    ok, reason = validate_detailed(t, p)
    old, old_reason = pairwise_validate_detailed(t, p)
    assert ok == old, (t.simplices, reason, old_reason)
    return ok, reason


def _validator_suite_cases():
    """The instances of selfcheck.check_validator_suite, drawn from the same
    seed in the same order, each with its dropped and duplicated corruption."""
    rng = random.Random(99)
    for _ in range(VALIDATOR_SUITE_INSTANCES):
        p = _random_polytope(rng)
        order = list(range(p.n_vertices))
        rng.shuffle(order)
        t = pulling_triangulation(p, order)
        yield p, t
        if t.n_simplices >= 2:
            yield p, Triangulation(t.points, t.simplices[1:], t.dim)
        yield p, Triangulation(t.points, t.simplices + (t.simplices[0],), t.dim)


def test_agreement_on_the_validator_suite():
    verdicts = [_verdict(t, p)[0] for p, t in _validator_suite_cases()]
    assert verdicts.count(True) == 200


@pytest.mark.parametrize("dims", [(2,), (3,)], ids=["polygons", "3-polytopes"])
def test_agreement_on_random_cell_subsets(dims):
    """Random 1-to-6-cell subsets of a pool of cells: those of three pulling
    triangulations, which overlap one another, and random vertex simplices."""
    rng = random.Random(17)
    accepted = ridge_rejects = 0
    for _ in range(40):
        p = _random_polytope(rng, dims)
        pool = set()
        for _ in range(3):
            order = list(range(p.n_vertices))
            rng.shuffle(order)
            pool.update(pulling_triangulation(p, order).simplices)
        for _ in range(3):
            pool.add(tuple(sorted(rng.sample(range(p.n_vertices), p.dim + 1))))
        pool = sorted(pool)
        for _ in range(30):
            cells = rng.sample(pool, rng.randint(1, min(6, len(pool))))
            ok, reason = _verdict(Triangulation(p.vertices, tuple(cells), p.dim), p)
            accepted += ok
            ridge_rejects += "ridge" in reason
    # Both outcomes past the volume check are exercised.
    assert accepted and ridge_rejects


SQUARE = [QVector(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]]


@pytest.mark.parametrize(
    "points,cells,outside",
    [
        ([(5, 5), (6, 5), (5, 6), (6, 6)], ((0, 1, 3), (0, 2, 3)), 0),
        ([(0, 0), (2, 0), (0, 1)], ((0, 1, 2),), 1),
    ],
    ids=["translated-square", "long-triangle"],
)
def test_points_outside_p_are_rejected_by_the_ridge_validator_only(points, cells, outside):
    p = make_polytope(SQUARE)
    t = Triangulation(tuple(QVector(q) for q in points), cells, 2)
    assert pairwise_validate_detailed(t, p) == (True, "ok")
    assert validate_detailed(t, p) == (False, f"point {outside} lies outside the polytope")
