"""Cross-check the double description facet search against two oracles.

`brute_force_hyperplanes` is the library's former C(n, k) search over vertex
subsets, kept verbatim: on every instance it must return the same
hyperplanes (normal, offset and incidence) as `_supporting_hyperplanes`,
and the facets built from its output must equal `Polytope.facets()`.
`naive_facets` recomputes the incidences independently with plain rational
row reduction over every vertex subset, with no prefix sharing, no pruning
and no integer scaling.  `former_order` is the library's former facet sort
key on `Fraction` entries; the facets behind `facets` JSON and pulling must
come in that order.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from spinaltri import polytope
from spinaltri.birkhoff import birkhoff_context
from spinaltri.everest import simplotope_with_spine
from spinaltri.linalg import QVector
from spinaltri.polytope import frame_coords, make_polytope
from linalg_oracle import QMatrix, kernel_basis
from random_polytopes import random_polytope
from test_frame_oracle import affine_start, instances


def brute_force_hyperplanes(
    pts: list[tuple[int, ...]], k: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """All supporting hyperplanes of a dim-k integer point set in Z^k.

    Returns (normal, offset, incident_mask) triples with normal.p <= offset
    for every point.  Enumerates k-subsets depth-first so that the partial
    eliminations of shared prefixes are computed once; affinely dependent
    prefixes are pruned, and subsets lying inside an already found facet are
    skipped before the expensive leaf work.
    """
    n = len(pts)
    found: dict[int, tuple[tuple[int, ...], int]] = {}
    found_masks: list[int] = []
    if n < k:
        return []

    def leaf(base: int, rows: list[list[int]], pivots: list[int], mask: int) -> None:
        for fm in found_masks:
            if mask & fm == mask:
                return
        free = next(c for c in range(k) if c not in pivots)
        # Back-substitute the echelon (creation order) for the kernel vector.
        x: list[Fraction] = [Fraction(0)] * k
        x[free] = Fraction(1)
        for idx in range(len(rows) - 1, -1, -1):
            row = rows[idx]
            c = pivots[idx]
            s = row[free] * x[free]
            for later in pivots[idx + 1 :]:
                if row[later] != 0:
                    s += row[later] * x[later]
            x[c] = -s / row[c]
        mult = math.lcm(*(f.denominator for f in x))
        normal = [int(f * mult) for f in x]
        g0 = math.gcd(*(abs(v) for v in normal))
        if g0 > 1:
            normal = [v // g0 for v in normal]
        base_pt = pts[base]
        offset = sum(normal[c] * base_pt[c] for c in range(k))
        above = below = False
        inc_mask = 0
        for i, q in enumerate(pts):
            s = sum(normal[c] * q[c] for c in range(k)) - offset
            if s > 0:
                above = True
                if below:
                    return
            elif s < 0:
                below = True
                if above:
                    return
            else:
                inc_mask |= 1 << i
        if above:
            normal = [-v for v in normal]
            offset = -offset
        if inc_mask not in found:
            found[inc_mask] = (tuple(normal), offset)
            found_masks.append(inc_mask)

    def descend(
        base: int,
        start: int,
        count: int,
        rows: list[list[int]],
        pivots: list[int],
        mask: int,
    ) -> None:
        remaining = k - count
        for i in range(start, n - remaining + 1):
            edge = [pts[i][c] - pts[base][c] for c in range(k)]
            red = list(edge)
            for row, c in zip(rows, pivots):
                if red[c] != 0:
                    piv = row[c]
                    f = red[c]
                    red = [piv * a - f * b for a, b in zip(red, row)]
            piv_col = next((c for c, v in enumerate(red) if v != 0), None)
            if piv_col is None:
                continue  # affinely dependent on the chosen prefix
            rows.append(red)
            pivots.append(piv_col)
            if count + 1 == k:
                leaf(base, rows, pivots, mask | 1 << i)
            else:
                descend(base, i + 1, count + 1, rows, pivots, mask | 1 << i)
            rows.pop()
            pivots.pop()

    for base in range(n - k + 1):
        if k == 1:
            leaf(base, [], [], 1 << base)
        else:
            descend(base, base + 1, 1, [], [], 1 << base)
    return [(nrm, off, m) for m, (nrm, off) in found.items()]


def assert_matches_brute_force(p):
    """Same hyperplanes as the brute-force search, hence the same facets."""
    pts = list(p.frame().icoords)
    got = polytope._supporting_hyperplanes(pts, p.dim, affine_start(pts))
    assert sorted(got) == sorted(brute_force_hyperplanes(pts, p.dim))
    with mock.patch.object(
        polytope,
        "_supporting_hyperplanes",
        lambda pts, k, start: brute_force_hyperplanes(pts, k),
    ):
        expected = polytope._enumerate_facets(p)
    assert p.facets() == expected


def naive_facets(p):
    """Supporting hyperplanes via direct rational linear algebra."""
    k = p.dim
    coords = [frame_coords(p, v) for v in p.vertices]
    found = {}
    for combo in itertools.combinations(range(len(coords)), k):
        base = coords[combo[0]]
        edges = [list(coords[i] - base) for i in combo[1:]]
        mat = QMatrix(edges, cols=k)
        basis = kernel_basis(mat)
        if len(basis) != 1:
            continue  # affinely dependent subset
        normal = basis[0]
        offset = normal.dot(base)
        sides = [normal.dot(q) - offset for q in coords]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        if any(s > 0 for s in sides):
            normal, offset = -normal, -offset
            sides = [-s for s in sides]
        incident = tuple(i for i, s in enumerate(sides) if s == 0)
        found[incident] = True
    return set(found)


def test_agrees_with_naive_oracle_on_random_instances():
    rng = random.Random(31337)
    for _ in range(25):
        p = random_polytope(rng)
        got = {f.incident for f in p.facets()}
        assert got == naive_facets(p)
        assert_matches_brute_force(p)


def skew_square():
    """A 2-polytope embedded in R^4 via an affine map with a skew basis."""
    square = [QVector(b) for b in itertools.product((0, 1), repeat=2)]
    a = QMatrix([[1, 2], [0, 1], [3, -1], [1, 1]])
    shift = QVector([1, -1, 0, 2])
    return make_polytope([(a @ v) + shift for v in square])


def test_agrees_on_lower_dimensional_embedding():
    p = skew_square()
    assert p.dim == 2
    got = {f.incident for f in p.facets()}
    assert got == naive_facets(p)
    assert len(got) == 4
    assert_matches_brute_force(p)


def truncated_b4():
    ctx = birkhoff_context(4)
    return make_polytope([QMatrix(ctx.a_map) @ QVector(v) for v in ctx.vertices])


LARGE_INSTANCES = pytest.mark.parametrize(
    "build",
    [
        lambda: simplotope_with_spine(3, 2)[0],
        lambda: make_polytope(
            [QVector(b) for b in itertools.product((0, 1), repeat=5)],
            max_vertices=32,
        ),
        truncated_b4,
    ],
    ids=["S(3,2)", "5-cube", "truncated-B4"],
)


@pytest.mark.slow
@LARGE_INSTANCES
def test_agrees_with_brute_force_on_large_instances(build):
    # The brute-force search takes 11-107 s on each of these.
    assert_matches_brute_force(build())


def former_order(facets):
    """The former sort key: the normal's `Fraction` entries, then the offset."""
    return sorted(facets, key=lambda f: (f.normal.entries, f.offset))


def test_former_order_on_random_instances():
    rng = random.Random(31337)
    for _ in range(25):
        facets = random_polytope(rng).facets()
        assert facets == former_order(facets)


def test_former_order_on_lower_dimensional_embedding():
    facets = skew_square().facets()
    assert facets == former_order(facets)


@LARGE_INSTANCES
def test_former_order_on_large_instances(build):
    facets = build().facets()
    assert facets == former_order(facets)


@pytest.mark.parametrize("seed", [0, 1])
def test_former_order_on_skew_rational_embeddings(seed):
    # Each random polytope, then its images under a full-dimensional and a
    # lower-dimensional random rational affine map.
    for p in instances(seed, 12):
        assert p.facets() == former_order(p.facets())
