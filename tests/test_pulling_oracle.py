"""Cross-check pulling on the face lattice against two oracles.

`GeometricPullContext` is the library's former `_PullContext`, kept verbatim
except that faces are built with `Polytope(...)`: it builds a polytope for
every face and enumerates that face's facets from coordinates.  Swapped in
for `triangulation._PullContext`, it must give the same cells as the bitmask
recursion for every pulling order, in pulling and star triangulations alike.

`quadratic_facets_of_face` is the library's former face step, kept verbatim:
it keeps a candidate face & g unless another candidate contains it.  The
popcount-ordered `facets_of_face` must give the same set on every face the
pulling recursion visits, and on arbitrary mask families.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaltri import polytope, triangulation
from spinaltri.birkhoff import birkhoff_context, projected_birkhoff
from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
from spinaltri.linalg import QVector
from spinaltri.polytope import (
    Polytope,
    facets_of_face,
    make_polytope,
)
from spinaltri.selfcheck import _random_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import (
    pulling_triangulation,
    shadow,
    star_triangulation,
)
from linalg_oracle import QMatrix


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
    assert p.facets() == []
    assert p.incidence_masks() == []


def test_pulling_enumerates_facets_once(monkeypatch):
    # A polytope built on its own enumerates its facets at its first
    # pulling, once.
    b4 = projected_birkhoff(birkhoff_context(4))
    p = Polytope(b4.vertices, b4.ambient_dim)
    with mock.patch.object(
        Polytope, "facets", autospec=True, side_effect=Polytope.facets
    ) as facets:
        pulling_triangulation(p, list(reversed(range(p.n_vertices))))
    assert facets.call_count == 1
    # A library polytope keeps the masks its convex-position check formed,
    # so from construction through its first pulling it runs one double
    # description and forms one mask per facet, besides the start cone's.
    dds, masks = [], []
    real_dd, real_mask = polytope._supporting_hyperplanes, polytope.vertex_mask

    def counting_dd(*args):
        dds.append(args)
        return real_dd(*args)

    def counting_mask(indices):
        masks.append(indices)
        return real_mask(indices)

    monkeypatch.setattr(polytope, "_supporting_hyperplanes", counting_dd)
    monkeypatch.setattr(polytope, "vertex_mask", counting_mask)
    q = projected_birkhoff(birkhoff_context(4))
    pulling_triangulation(q, list(reversed(range(q.n_vertices))))
    monkeypatch.undo()
    assert len(dds) == 1
    assert len(masks) == len(q.facets()) + 1


def quadratic_facets_of_face(face: int, facet_masks) -> list[int]:
    """Facets of a face of P as vertex bitmasks: the inclusion-maximal
    nonempty proper sets face & g over the facets g of P (Kaibel and Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", Comput. Geom. 2002)."""
    cands = {face & g for g in facet_masks} - {face, 0}
    return [c for c in cands if not any(c & o == c and c != o for o in cands)]


def assert_face_steps_match(p: Polytope, orders) -> int:
    """On every face the recursion memoizes, for every order, both face
    steps give the same facet set, the new one without repeats; pulling
    with the old step gives the same cells.  Returns the faces checked."""
    checked = 0
    for order in orders:
        ctx = triangulation._PullContext(p, {v: i for i, v in enumerate(order)})
        ctx.pull((1 << p.n_vertices) - 1)
        for face in ctx.memo:
            got = facets_of_face(face, ctx.facet_masks)
            assert len(set(got)) == len(got)
            assert set(got) == set(quadratic_facets_of_face(face, ctx.facet_masks))
        checked += len(ctx.memo)
        new = pulling_triangulation(p, order).simplices
        with mock.patch.object(
            triangulation, "facets_of_face", quadratic_facets_of_face
        ):
            assert pulling_triangulation(p, order).simplices == new
    return checked


def cube(d: int) -> Polytope:
    return make_polytope(
        [QVector(b) for b in itertools.product((0, 1), repeat=d)], max_vertices=32
    )


def truncated_b4() -> Polytope:
    ctx = birkhoff_context(4)
    return make_polytope([QMatrix(ctx.a_map) @ QVector(v) for v in ctx.vertices])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_face_steps_match_oracle(d):
    rng = random.Random(3000 + d)
    checked = 0
    for _ in range(5):
        p = _random_polytope(rng, (d,))
        checked += assert_face_steps_match(p, _orders(rng, p.n_vertices, 3))
    assert checked >= 15


@pytest.mark.parametrize(
    "build",
    [
        lambda: cube(4),
        lambda: cube(5),
        lambda: simplotope_with_spine(3, 2)[0],
        truncated_b4,
        lambda: projected_birkhoff(birkhoff_context(4)),
    ],
    ids=["4-cube", "5-cube", "S(3,2)", "truncated-B4", "projected-B4"],
)
def test_named_face_steps_match_oracle(build):
    p = build()
    assert assert_face_steps_match(p, _orders(random.Random(7), p.n_vertices, 3))


@st.composite
def mask_families(draw):
    """A face and a family of masks over at most 12 vertices, with some
    masks nested inside others and some repeated."""
    n = draw(st.integers(1, 12))
    mask = st.integers(0, (1 << n) - 1)
    family = draw(st.lists(mask, max_size=10))
    for g in list(family):
        family.append(g & draw(mask))  # nested
        if draw(st.booleans()):
            family.append(g)  # repeated
    family = draw(st.permutations(family))
    face = draw(st.one_of(st.just((1 << n) - 1), mask))
    return face, family


@given(mask_families())
def test_face_step_matches_oracle_on_mask_families(case):
    face, family = case
    got = facets_of_face(face, family)
    assert len(set(got)) == len(got)
    assert set(got) == set(quadratic_facets_of_face(face, family))


def assert_parent_route_matches(build, *args) -> int:
    """One pulling or star call, with every face step recorded: each face's
    facets, computed from the list its caller passed, equal the quadratic
    step's over all of P's facet masks; the list passed is P's masks or the
    facets of a face the recursion already stepped, one that holds the
    face.  Returns the number of face steps."""
    real_step = triangulation.facets_of_face
    real_init = triangulation._PullContext.__init__
    steps, tops = [], []

    def recording(face, masks):
        got = real_step(face, masks)
        steps.append((face, list(masks), got))
        return got

    def init(self, p, rank):
        real_init(self, p, rank)
        tops.append(self.facet_masks)

    with mock.patch.object(triangulation, "facets_of_face", recording), mock.patch.object(
        triangulation._PullContext, "__init__", init
    ):
        build(*args)
    (masks,) = tops
    stepped = {face: got for face, _, got in steps}
    for face, passed, got in steps:
        assert len(set(got)) == len(got)
        assert set(got) == set(quadratic_facets_of_face(face, masks))
        assert passed == masks or any(
            passed == subs and face in subs for subs in stepped.values()
        )
    return len(steps)


def box(lo_hi) -> list[QVector]:
    return [QVector(c) for c in itertools.product(*lo_hi)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_parent_route_matches_oracle(d):
    # The polytopes and orders of test_random_face_steps_match_oracle.
    rng = random.Random(3000 + d)
    checked = 0
    for _ in range(5):
        p = _random_polytope(rng, (d,))
        for order in _orders(rng, p.n_vertices, 3):
            checked += assert_parent_route_matches(pulling_triangulation, p, order)
    assert checked >= 15


@pytest.mark.parametrize(
    "build",
    [
        lambda: cube(4),
        lambda: cube(5),
        lambda: simplotope_with_spine(3, 2)[0],
        truncated_b4,
        lambda: projected_birkhoff(birkhoff_context(4)),
        lambda: everest_polytope(EverestParams(2, 2)),
    ],
    ids=["4-cube", "5-cube", "S(3,2)", "truncated-B4", "projected-B4", "E(2,2)"],
)
def test_named_parent_route_matches_oracle(build):
    p = build()
    for order in _orders(random.Random(7), p.n_vertices, 3):
        assert assert_parent_route_matches(pulling_triangulation, p, order)


@pytest.mark.parametrize(
    "others",
    [
        box([(-1, 1)] * 3),
        box([(0, 2)] + [(-1, 1)] * 2),
        box([(1, 2)] * 3)[1:],
    ],
    ids=["inside", "on-a-facet", "outside"],
)
def test_star_parent_route_matches_oracle(others):
    pts = others[:3] + [QVector.zero(3)] + others[3:]
    for order in _orders(random.Random(11), len(pts), 3):
        assert assert_parent_route_matches(star_triangulation, pts, order)


def test_projected_b4_face_step_scans_its_parents_facets():
    """A work counter, the same on every machine: pulling projected B4 in
    the default order steps 499 faces, and the masks they scan add up to
    at most a quarter of the 499 * 136 = 67,864 that scanning all of P's
    facets costs (14,457 when this test was written)."""
    p = projected_birkhoff(birkhoff_context(4))
    real_step = triangulation.facets_of_face
    scanned = []

    def counting(face, masks):
        scanned.append(len(masks))
        return real_step(face, masks)

    with mock.patch.object(triangulation, "facets_of_face", counting):
        t = pulling_triangulation(p)
    assert t.n_simplices == 220 and len(p.facets()) == 136
    assert len(scanned) == 499
    assert sum(scanned) <= 67_864 // 4
