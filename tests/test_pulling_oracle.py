"""Cross-check pulling on the face lattice against the former geometric
recursion.

`GeometricPullContext` is the library's former `_PullContext`, kept verbatim
except that faces are built with `Polytope(...)`: it builds a polytope for
every face and enumerates that face's facets from coordinates.  Swapped in
for `triangulation._PullContext`, it must give the same cells as the bitmask
recursion for every pulling order, in pulling and star triangulations alike.
"""

import random
from unittest import mock

import pytest

from spinaltri import triangulation
from spinaltri.birkhoff import birkhoff_context, projected_birkhoff
from spinaltri.linalg import QVector
from spinaltri.polytope import DegeneratePolytope, Polytope, make_polytope
from spinaltri.selfcheck import _random_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import (
    pulling_triangulation,
    shadow,
    star_triangulation,
)


class GeometricPullContext:
    """Recursive pulling machinery over the faces of one polytope.

    Faces are identified by their (global) vertex index sets; each face's
    pulling triangulation is memoized because neighbouring face chains share
    lower faces.
    """

    def __init__(self, p: Polytope, rank: dict[int, int]):
        self.p = p
        self.rank = rank
        self.all_indices = frozenset(range(p.n_vertices))
        self.memo: dict[frozenset, tuple[tuple[int, ...], ...]] = {}

    def pull(self, face: frozenset) -> tuple[tuple[int, ...], ...]:
        cached = self.memo.get(face)
        if cached is not None:
            return cached
        if len(face) == 1:
            result = ((next(iter(face)),),)
            self.memo[face] = result
            return result
        ordered = sorted(face)
        if face == self.all_indices:
            poly = self.p
        else:
            poly = Polytope(
                [self.p.vertices[i] for i in ordered], self.p.ambient_dim
            )
        first = min(face, key=self.rank.__getitem__)
        cells: set[tuple[int, ...]] = set()
        for facet in poly.facets():
            inc = frozenset(ordered[j] for j in facet.incident)
            if first in inc:
                continue
            for tau in self.pull(inc):
                cells.add(tuple(sorted((first,) + tau)))
        result = tuple(sorted(cells))
        self.memo[face] = result
        return result


class _BitmaskFaces(GeometricPullContext):
    """The oracle behind the library's interface: faces arrive as bitmasks."""

    def pull(self, face):
        if isinstance(face, int):
            face = frozenset(i for i in range(face.bit_length()) if face >> i & 1)
        return super().pull(face)


def _with_oracle(build, *args):
    """Simplices from the library, then from the oracle, for one call."""
    new = build(*args).simplices
    with mock.patch.object(triangulation, "_PullContext", _BitmaskFaces):
        old = build(*args).simplices
    return new, old


def _orders(rng: random.Random, n: int, count: int) -> list[list[int]]:
    out = [list(range(n))]
    for _ in range(count - 1):
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(perm)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_pulling_matches_oracle(d):
    rng = random.Random(1000 + d)
    for _ in range(6):
        p = _random_polytope(rng, (d,))
        for order in _orders(rng, p.n_vertices, 4):
            new, old = _with_oracle(pulling_triangulation, p, order)
            assert new == old


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_spine_shadow_stars_match_oracle(d):
    rng = random.Random(2000 + d)
    checked = 0
    for _ in range(4):
        p = _random_polytope(rng, (d,))
        proper = [u for u in enumerate_spines(p, 2) if len(u) < p.n_vertices]
        for idx in proper[:3]:
            pts = list(shadow(spine(p, idx)).star_points)
            for order in _orders(rng, len(pts), 3):
                new, old = _with_oracle(star_triangulation, pts, order)
                assert new == old
                checked += 1
    assert checked >= 6


def test_projected_b4_matches_oracle():
    p = projected_birkhoff(birkhoff_context(4))
    new, old = _with_oracle(pulling_triangulation, p, None)
    assert new == old


def test_one_vertex_polytope_needs_no_facets():
    p = make_polytope([QVector((1, 2))])
    assert pulling_triangulation(p).simplices == ((0,),)
    with pytest.raises(DegeneratePolytope):
        p.facets()


def test_pulling_enumerates_facets_once():
    p = projected_birkhoff(birkhoff_context(4))
    with mock.patch.object(
        Polytope, "facets", autospec=True, side_effect=Polytope.facets
    ) as facets:
        pulling_triangulation(p, list(reversed(range(p.n_vertices))))
    assert facets.call_count == 1
