"""Cross-check the integer hull frame against its Fraction predecessors.

The library's former Fraction code is kept here verbatim as the oracle:

- `_Frame`, `_build_frame`, `_reduce_against` and `frame_coords`: hull
  coordinates through the inverse Gram matrix (`frame_coords` reads its
  frame from `oracle_frame` instead of `Polytope.frame`);
- `affine_start`: the first maximal affinely independent run of points, by
  the oracle rank, which must be the frame's basis and starts the double
  description that `oracle_facets` runs;
- `_scaled_int_coords` and `_lift_normal`, as `oracle_facets` calls them
  (the former `_enumerate_facets`);
- `fraction_projector`: the body of the former `ShadowMap` up to the images;
- `kernel_validate_detailed`: the former `validate_detailed`, which put a
  `kernel_basis` normal on every interior ridge;
- `fraction_birkhoff_checks`: the former self-checks of `birkhoff_context`;
- `fraction_projected_images` and `fraction_determinant_identities`: the
  former images D(C(A v) + b) of `projected_birkhoff` and the former
  `determinant_identities`, both on the context's integer rows wrapped in
  the oracle `QMatrix` and its integer vectors wrapped in `QVector`.

The library must give equal coordinates, Gram determinants, facets (normal,
offset and incidence), projected images and accept/reject answers with
equal reasons.  The instances are seeded random polytopes in dimensions 2 to
4, their images under random rational affine maps into the same or a larger
space (skew rational embeddings of lower dimension), the shadows of every
spine of those, and the Birkhoff contexts.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest

from spinaltri import birkhoff, polytope
from spinaltri.linalg import QVector
from spinaltri.polytope import Facet, Polytope, PolytopeError, make_polytope
from spinaltri.selfcheck import _random_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import (
    ShadowInternalError,
    Triangulation,
    fold,
    pulling_triangulation,
    shadow,
    shadow_polytope,
    spinal_triangulation,
    star_triangulation,
    validate_detailed,
)
from spinaltri.volume import polytope_relative_volume
from linalg_oracle import QMatrix, Vec, det, hull_coords, inverse, kernel_basis, rank, unit
from test_birkhoff import is_int_rows
from test_validate_oracle import simplex_relative_volume


# --- the former Fraction frame ------------------------------------------------


@dataclass(frozen=True)
class _Frame:
    """Exact coordinates of the vertices in a basis of the affine hull."""

    dim: int
    origin: QVector
    basis: tuple[QVector, ...]
    coords: tuple[QVector, ...]
    gram_det: Fraction
    identity: bool
    bmat: QMatrix | None = None
    gram_inv: QMatrix | None = None


def _build_frame(vertices: tuple[QVector, ...], ambient_dim: int) -> _Frame:
    vertices = tuple(map(Vec, vertices))
    if len(vertices) == 1:
        return _Frame(0, vertices[0], (), (QVector([]),), Fraction(1), False)
    # Greedy: scan edge vectors from vertices[0] for a maximal independent set.
    origin = vertices[0]
    basis: list[QVector] = []
    echelon: list[list[Fraction]] = []
    for v in vertices[1:]:
        e = v - origin
        red = _reduce_against(list(e.entries), echelon)
        if red is not None:
            echelon.append(red)
            basis.append(e)
        if len(basis) == ambient_dim:
            break
    k = len(basis)
    if k == ambient_dim:
        return _Frame(
            k, QVector.zero(ambient_dim), tuple(basis), vertices, Fraction(1), True
        )
    bmat = QMatrix.from_cols(basis, dim=ambient_dim)
    gram = bmat.transpose() @ bmat
    gram_inv = inverse(gram)
    gram_det = det(gram)
    coords = []
    for v in vertices:
        rhs = bmat.transpose() @ (v - origin)
        c = gram_inv @ rhs
        # Consistency: v must lie in the affine hull of the chosen basis.
        if bmat @ c != v - origin:
            raise PolytopeError("point outside the affine hull of the basis")
        coords.append(c)
    return _Frame(
        k, origin, tuple(basis), tuple(coords), gram_det, False, bmat, gram_inv
    )


def _reduce_against(
    vec: list[Fraction], echelon: list[list[Fraction]]
) -> list[Fraction] | None:
    """Reduce vec by echelon rows; return the reduced row or None if dependent."""
    v = list(vec)
    for row in echelon:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if v[lead] != 0:
            f = v[lead] / row[lead]
            v = [a - f * b for a, b in zip(v, row)]
    if all(x == 0 for x in v):
        return None
    return v


@functools.lru_cache(maxsize=None)
def oracle_frame(p: Polytope) -> _Frame:
    return _build_frame(p.vertices, p.ambient_dim)


def frame_coords(p: Polytope, point: QVector) -> QVector:
    """Coordinates of an ambient point in p's hull frame (must lie in the hull)."""
    fr = oracle_frame(p)
    point = Vec(point)
    if fr.identity:
        return point
    if not fr.basis:
        if point != fr.origin:
            raise PolytopeError("point outside the affine hull")
        return QVector([])
    c = fr.gram_inv @ (fr.bmat.transpose() @ (point - fr.origin))
    if fr.bmat @ c != point - fr.origin:
        raise PolytopeError("point outside the affine hull")
    return c


def _scaled_int_coords(coords: Sequence[QVector]) -> list[tuple[int, ...]]:
    denoms = [x.denominator for q in coords for x in q]
    mult = math.lcm(*denoms) if denoms else 1
    return [tuple(int(x * mult) for x in q) for q in coords]


def affine_start(pts: Sequence[Sequence]) -> tuple[int, ...]:
    """The indices of the first maximal affinely independent run of points,
    by the rank of the rows (p, 1)."""
    start: list[int] = []
    for i in range(len(pts)):
        rows = [list(pts[j]) + [1] for j in start + [i]]
        if rank(QMatrix(rows, cols=len(pts[i]) + 1)) == len(rows):
            start.append(i)
    return tuple(start)


def oracle_facets(p: Polytope) -> list[Facet]:
    k = p.dim
    fr = oracle_frame(p)
    int_pts = _scaled_int_coords(fr.coords)
    raw = polytope._supporting_hyperplanes(int_pts, k, affine_start(int_pts))
    facets = []
    n = len(p.vertices)
    for normal_ints, offset_int, mask in raw:
        incident = tuple(i for i in range(n) if mask >> i & 1)
        normal_amb, offset = _lift_normal(p, fr, normal_ints, offset_int, incident)
        facets.append(Facet(normal_amb, offset, incident))
    facets.sort(key=lambda f: (f.normal.entries, f.offset))
    return facets


def _lift_normal(
    p: Polytope,
    fr: _Frame,
    normal_ints: Sequence[int],
    offset_int: int,
    incident: tuple[int, ...],
) -> tuple[QVector, Fraction]:
    """Turn a hull-coordinate hyperplane into canonical ambient form."""
    if fr.identity:
        n_amb = Vec(normal_ints)
        # Undo the integer scaling of the coordinates via any incident vertex.
        offset = n_amb.dot(p.vertices[incident[0]])
    else:
        g = QVector(normal_ints)
        n_amb = fr.bmat @ (fr.gram_inv @ g)
        offset = n_amb.dot(p.vertices[incident[0]])
    mult = math.lcm(*(x.denominator for x in n_amb))
    ints = [int(x * mult) for x in n_amb]
    g0 = math.gcd(*(abs(v) for v in ints))
    ints = [v // g0 for v in ints]
    normal = Vec(ints)
    offset = offset * mult / g0
    # Outward orientation: every vertex satisfies normal.v <= offset.
    if any(normal.dot(v) > offset for v in p.vertices):
        normal = -normal
        offset = -offset
    return normal, offset


# --- the former Fraction projector --------------------------------------------


def fraction_projector(sp) -> tuple[QMatrix, tuple[QVector, ...]]:
    p = sp.polytope
    d = p.ambient_dim
    translation = Vec(p.vertices[sp.indices[0]])
    directions = [Vec(p.vertices[i]) - translation for i in sp.indices[1:]]
    if directions:
        a = QMatrix.from_cols(directions, dim=d)
        gram_inv = inverse(a.transpose() @ a)
        proj = QMatrix.identity(d) - a @ gram_inv @ a.transpose()
    else:
        proj = QMatrix.identity(d)
    if proj.transpose() != proj or proj @ proj != proj:
        raise ShadowInternalError("projector is not symmetric idempotent")
    images = tuple(proj @ (Vec(v) - translation) for v in p.vertices)
    return proj, images


# --- the former kernel_basis ridge-side validator -----------------------------


def kernel_validate_detailed(t: Triangulation, p: Polytope) -> tuple[bool, str]:
    """Exact triangulation validation by the interior-ridge property (De
    Loera, Rambau and Santos, *Triangulations*, 2010, Ch. 4): full-dimensional
    cells with volumes summing to the polytope volume, every point used and
    inside P, each ridge on the boundary of P in exactly one cell, and each
    other ridge in exactly two cells on opposite sides of it."""
    k = p.dim
    n = len(t.points)
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
    # Bit j of on_facet[i] is set iff point i lies on facet j's hyperplane.
    facets = p.facets()
    on_facet = []
    for i, q in enumerate(t.points):
        mask = 0
        for j, f in enumerate(facets):
            side = Vec(f.normal).dot(q)
            if side > f.offset:
                return False, f"point {i} lies outside the polytope"
            if side == f.offset:
                mask |= 1 << j
        on_facet.append(mask)
    ridges: dict[tuple[int, ...], list[int]] = {}
    for c in t.simplices:
        c = sorted(c)
        for drop in c:
            ridges.setdefault(tuple(i for i in c if i != drop), []).append(drop)
    # The AND starts from -1, all facets, as the library's does, so the
    # empty ridge of a point's one cell lies on the boundary.
    for ridge, apexes in ridges.items():
        if functools.reduce(lambda a, b: a & b, (on_facet[i] for i in ridge), -1):
            if len(apexes) != 1:
                return False, f"boundary ridge {ridge} belongs to {len(apexes)} cells"
            continue
        if len(apexes) != 2:
            return False, f"interior ridge {ridge} belongs to {len(apexes)} cells"
        base = coords[ridge[0]]
        edges = QMatrix([list(coords[i] - base) for i in ridge[1:]], cols=k)
        (normal,) = kernel_basis(edges)
        a, b = (normal.dot(coords[i] - base) for i in apexes)
        if (a > 0) == (b > 0):
            return False, f"the cells on ridge {ridge} lie on the same side of it"
    return True, "ok"


# --- the former Fraction Birkhoff self-checks ---------------------------------


def fraction_birkhoff_checks(n, vertices, spine_vectors, a_map, b_map, c_map, a_vec, b_vec):
    m = n - 1
    ident = QVector(birkhoff.permutation_vector(tuple(range(n))))
    if a_map @ ident != QVector(birkhoff.permutation_vector(tuple(range(m)))):
        raise birkhoff.BirkhoffError("dropping the last row and column broke on the identity")
    for v in vertices:
        if b_map @ (a_map @ v) + a_vec != v:
            raise birkhoff.BirkhoffError("reconstruction from the truncated matrix failed")
    targets = {QVector.zero(m * m).entries} | {
        unit(m * m, i).entries for i in range(n - 1)
    }
    images = {(c_map @ (a_map @ u) + b_vec).entries for u in spine_vectors}
    if images != targets:
        raise birkhoff.BirkhoffError("spine did not land on the coordinate vectors")


def fraction_projected_images(ctx) -> list[QVector]:
    a, c, d = QMatrix(ctx.a_map), QMatrix(ctx.c_map), QMatrix(ctx.d_map, cols=ctx.m**2)
    return [d @ (c @ (a @ QVector(v)) + QVector(ctx.b_vec)) for v in ctx.vertices]


def fraction_determinant_identities(ctx) -> birkhoff.DeterminantReport:
    """det(B^T B) = n^(2m), |det C| = 1, det J = n, and the block identity
    det(block(J, m)) = (m+1)^m det(J)^m realized by B^T B itself."""
    n, m = ctx.n, ctx.m
    b = QMatrix(ctx.b_map)
    det_btb = det(b.transpose() @ b)
    det_c = abs(det(QMatrix(ctx.c_map)))
    det_j = det(QMatrix(ctx.j_mat))
    blk = det(QMatrix(birkhoff.block_matrix(ctx.j_mat, m)))
    block_ok = blk == (m + 1) ** m * det_j**m and blk == det_btb
    return birkhoff.DeterminantReport(
        det_btb,
        det_c,
        det_j,
        det_btb == Fraction(n) ** (2 * m),
        det_c == 1,
        det_j == n,
        block_ok,
    )


# --- instances ----------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def embed(p: Polytope, rng: random.Random, extra: int) -> Polytope:
    """p's image under a random injective rational affine map into
    R^(dim + extra); extra = 0 gives a full-dimensional rational polytope."""
    d = p.ambient_dim
    while True:
        a = QMatrix([[_rational(rng) for _ in range(d)] for _ in range(d + extra)])
        if rank(a) == d:
            break
    shift = QVector([_rational(rng) for _ in range(d + extra)])
    return make_polytope([a @ v + shift for v in p.vertices])


def instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        p = _random_polytope(rng, (2, 3, 4))
        yield p
        yield embed(p, rng, 0)
        yield embed(p, rng, rng.randint(1, 2))


def hull_points(p: Polytope, rng: random.Random):
    """Points in the affine hull (rational affine combinations of the
    vertices) and, when the hull is a proper subspace, points off it."""
    for _ in range(3):
        w = [_rational(rng) for _ in p.vertices]
        w[0] += 1 - sum(w)
        yield sum((c * Vec(v) for c, v in zip(w, p.vertices)), Vec.zero(p.ambient_dim))
    yield QVector([_rational(rng) for _ in range(p.ambient_dim)])


def assert_same_frame(p: Polytope, rng: random.Random):
    fr, old = p.frame(), oracle_frame(p)
    assert (fr.dim, fr.identity, fr.gram_det) == (old.dim, old.identity, old.gram_det)
    assert hull_coords(fr) == old.coords
    assert list(fr.icoords) == _scaled_int_coords(old.coords)
    assert (0, *fr.basis) == affine_start(p.vertices)
    assert p.facets() == oracle_facets(p)
    for x in itertools.chain(p.vertices, hull_points(p, rng)):
        try:
            want = frame_coords(p, x)
        except PolytopeError as exc:
            with pytest.raises(PolytopeError, match=str(exc)):
                polytope.frame_coords(p, x)
        else:
            assert polytope.frame_coords(p, x) == want


def assert_same_verdict(t: Triangulation, p: Polytope) -> tuple[bool, str]:
    got = validate_detailed(t, p)
    assert got == kernel_validate_detailed(t, p), t.simplices
    return got


def corruptions(t: Triangulation, rng: random.Random):
    yield t
    if t.n_simplices >= 2:
        yield Triangulation(t.points, t.simplices[1:], t.dim)
    yield Triangulation(t.points, t.simplices + (t.simplices[0],), t.dim)
    n = len(t.points)
    if n > t.dim + 1:
        cells = list(t.simplices)
        cells[0] = tuple(sorted(rng.sample(range(n), t.dim + 1)))
        yield Triangulation(t.points, tuple(cells), t.dim)


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_frames_facets_and_coordinates_match(seed):
    rng = random.Random(100 + seed)
    dims = set()
    for p in instances(seed, 12):
        assert_same_frame(p, rng)
        dims.add((p.dim, p.frame().identity))
    assert {(2, False), (3, False), (4, True), (4, False)} <= dims


def test_frames_whose_basis_skips_a_vertex():
    """The first vertices are affinely dependent, so the basis skips one:
    the octahedron with its square equator first, and a triangular prism
    in R^4, under a rational affine map, with a square face first."""
    octahedron = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    prism = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
    half, third = Fraction(1, 2), Fraction(1, 3)
    into_r4 = [(x + z + half, y, z - y + 1, x + 2 * y + 3 * z - third) for x, y, z in prism]
    rng = random.Random(29)
    for verts, identity, n_facets in ((octahedron, True, 8), (into_r4, False, 5)):
        p = make_polytope([QVector(v) for v in verts])
        assert p.frame().basis == (1, 2, 4)
        assert (p.dim, p.frame().identity) == (3, identity)
        assert len(p.facets()) == n_facets
        assert_same_frame(p, rng)
    off_hull = QVector([half, 0, 1, 5])
    with pytest.raises(PolytopeError, match="outside the affine hull"):
        polytope.frame_coords(p, off_hull)
    with pytest.raises(PolytopeError, match="outside the affine hull"):
        frame_coords(p, off_hull)


def test_single_vertex_frame():
    p = make_polytope([QVector([Fraction(1, 2), 3])])
    fr, old = p.frame(), oracle_frame(p)
    assert (fr.dim, hull_coords(fr), fr.gram_det) == (old.dim, old.coords, old.gram_det)
    for x in [p.vertices[0], QVector([0, 3])]:
        try:
            want = frame_coords(p, x)
        except PolytopeError:
            with pytest.raises(PolytopeError):
                polytope.frame_coords(p, x)
        else:
            assert polytope.frame_coords(p, x) == want


@pytest.mark.parametrize("seed", [0, 1])
def test_shadows_of_every_spine_match(seed):
    rng = random.Random(200 + seed)
    shadows = 0
    for p in instances(seed, 8):
        for idx in enumerate_spines(p, 1):
            sp = spine(p, idx)
            sm = shadow(sp)
            _, images = fraction_projector(sp)
            assert sm.shadow_points == images
            nonspine = [i for i in range(p.n_vertices) if i not in set(idx)]
            assert sm.star_points[1:] == tuple(images[i] for i in nonspine)
            if sm.e > 0:
                assert_same_frame(shadow_polytope(sm), rng)
            shadows += 1
    assert shadows > 100


@pytest.mark.parametrize("seed", [0, 1])
def test_validators_agree_on_polytopes_and_shadows(seed):
    rng = random.Random(300 + seed)
    verdicts = []
    for p in instances(seed, 8):
        order = list(range(p.n_vertices))
        rng.shuffle(order)
        for t in corruptions(pulling_triangulation(p, order), rng):
            verdicts.append(assert_same_verdict(t, p))
        for idx in enumerate_spines(p, 2)[:3]:
            sp = spine(p, idx)
            sm = shadow(sp)
            star = fold(spinal_triangulation(sp), sm)
            q = shadow_polytope(sm)
            for t in corruptions(star, rng):
                verdicts.append(assert_same_verdict(t, q))
            other = star_triangulation(list(sm.star_points), None)
            verdicts.append(assert_same_verdict(other, q))
    reasons = {r.split(" ")[0] for ok, r in verdicts if not ok}
    assert sum(ok for ok, _ in verdicts) > 50
    assert {"cell", "interior", "boundary"} & reasons


def point_cases():
    """A point polytope with its one cell, the cell twice, a repeated point
    and a point off the vertex, as (triangulation, polytope)."""
    p = make_polytope([QVector((2, 3))])
    for pts, cells in [
        (p.vertices, ((0,),)),
        (p.vertices, ((0,), (0,))),
        (p.vertices * 2, ((0,),)),
        (p.vertices + (QVector((2, 4)),), ((0,),)),
    ]:
        yield Triangulation(pts, cells, 0), p


def test_validators_agree_on_a_point():
    verdicts = [assert_same_verdict(t, p) for t, p in point_cases()]
    assert [ok for ok, _ in verdicts] == [True, False, False, False]


def test_validators_agree_on_random_cell_subsets():
    """Random subsets of the cells of three pulling triangulations, which
    overlap one another, of the size of one of them."""
    rng = random.Random(17)
    outcomes = []
    for p in instances(7, 10):
        pool, sizes = set(), []
        for _ in range(3):
            order = list(range(p.n_vertices))
            rng.shuffle(order)
            t = pulling_triangulation(p, order)
            pool.update(t.simplices)
            sizes.append(t.n_simplices)
        pool = sorted(pool)
        for _ in range(20):
            cells = rng.sample(pool, rng.choice(sizes))
            t = Triangulation(p.vertices, tuple(cells), p.dim)
            outcomes.append(assert_same_verdict(t, p))
    assert any(ok for ok, _ in outcomes) and not all(ok for ok, _ in outcomes)


def test_validators_agree_on_mapped_double_covers():
    """Both triangulations of the diamond inside the doubled square, under
    random rational affine maps (orientation reversing ones included) into
    R^2 to R^4: only the ridge-side test rejects them."""
    rng = random.Random(23)
    square = make_polytope([QVector(v) for v in [(0, 0), (2, 0), (0, 2), (2, 2)]])
    diamond = [QVector(v) for v in [(1, 0), (2, 1), (1, 2), (0, 1)]]
    cells = ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))
    signs = set()
    for extra in (0, 0, 0, 0, 1, 1, 2, 2):
        while True:
            a = QMatrix([[_rational(rng) for _ in range(2)] for _ in range(2 + extra)])
            if rank(a) == 2:
                break
        shift = QVector([_rational(rng) for _ in range(2 + extra)])
        p = make_polytope([a @ v + shift for v in square.vertices])
        t = Triangulation(tuple(a @ v + shift for v in diamond), cells, 2)
        ok, reason = assert_same_verdict(t, p)
        assert not ok and reason.endswith("lie on the same side of it")
        if extra == 0:
            signs.add(det(a) > 0)
    assert signs == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_birkhoff_checks_match(n):
    ctx = birkhoff.birkhoff_context(n)
    a, b, c = map(QMatrix, (ctx.a_map, ctx.b_map, ctx.c_map))
    fraction_birkhoff_checks(
        n,
        [QVector(v) for v in ctx.vertices],
        [QVector(u) for u in ctx.spine_vectors],
        a,
        b,
        c,
        QVector(ctx.a_vec),
        QVector(ctx.b_vec),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_birkhoff_images_and_determinants_match(n):
    ctx = birkhoff.birkhoff_context(n)
    images = birkhoff._projected_images(ctx)
    assert is_int_rows(tuple(images))
    assert [QVector(w) for w in images] == fraction_projected_images(ctx)
    report = birkhoff.determinant_identities(ctx)
    assert report == fraction_determinant_identities(ctx)
    assert type(report.det_btb) is Fraction and report.all_ok


@pytest.mark.parametrize("n", [3, 4])
def test_birkhoff_polytopes_match(n):
    """The truncated and the projected B3 and B4, and B3 itself in R^9."""
    ctx = birkhoff.birkhoff_context(n)
    rng = random.Random(n)
    assert_same_frame(make_polytope([QMatrix(ctx.a_map) @ QVector(v) for v in ctx.vertices]), rng)
    assert_same_frame(birkhoff.projected_birkhoff(ctx), rng)
    if n == 3:
        assert_same_frame(make_polytope(ctx.vertices), rng)


def _corrupt(rows):
    rows = [list(r) for r in rows]
    rows[-1][0] += 1
    return rows


@pytest.mark.parametrize("builder", ["_build_a", "_build_b", "_build_c", "_build_a_vec"])
@pytest.mark.parametrize("n", [3, 4])
def test_birkhoff_checks_reject_alike(n, builder):
    original = getattr(birkhoff, builder)
    if builder == "_build_a_vec":
        broken = lambda k: [x + (i == 0) for i, x in enumerate(original(k))]  # noqa: E731
    else:
        broken = lambda k: _corrupt(original(k))  # noqa: E731
    with mock.patch.object(birkhoff, builder, broken):
        with pytest.raises(birkhoff.BirkhoffError) as got:
            birkhoff.birkhoff_context(n)
    maps = {
        name: QMatrix((broken if name == builder else getattr(birkhoff, name))(n))
        for name in ("_build_a", "_build_b", "_build_c")
    }
    vecs = {
        name: QVector((broken if name == builder else getattr(birkhoff, name))(n))
        for name in ("_build_a_vec", "_build_b_vec")
    }
    perms = list(itertools.permutations(range(n)))
    shift = tuple((i + 1) % n for i in range(n))
    spine_perms, cur = [], tuple(range(n))
    for _ in range(n):
        spine_perms.append(cur)
        cur = tuple(shift[cur[i]] for i in range(n))
    with pytest.raises(birkhoff.BirkhoffError) as want:
        fraction_birkhoff_checks(
            n,
            [QVector(birkhoff.permutation_vector(q)) for q in perms],
            [QVector(birkhoff.permutation_vector(q)) for q in spine_perms],
            maps["_build_a"],
            maps["_build_b"],
            maps["_build_c"],
            vecs["_build_a_vec"],
            vecs["_build_b_vec"],
        )
    assert str(got.value) == str(want.value)
