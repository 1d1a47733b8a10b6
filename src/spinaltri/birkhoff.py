"""Projection pipeline for the Birkhoff polytope of doubly stochastic matrices.

The polytope of n x n permutation matrices sits in R^(n^2) but is only
(n-1)^2-dimensional.  Explicit integer matrices make it full-dimensional
(drop the last row and column), move the cyclic-shift spine onto coordinate
vectors, and project away the spine span; the resulting polytope's volume is
tied to the Birkhoff volume by the projection volume law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import IntRows, det, int_det, int_dot, matvec
from .polytope import Polytope, _vertex_polytope, point_table
from .spine import spine
from .volume import _full_volume, lifting_relation_report


class BirkhoffError(ValueError):
    pass


IntVector = tuple[int, ...]


def permutation_vector(perm: Sequence[int]) -> IntVector:
    """Flatten the permutation matrix with rows concatenated."""
    n = len(perm)
    return tuple(int(perm[i] == j) for i in range(n) for j in range(n))


@dataclass(frozen=True)
class BirkhoffContext:
    """All explicit data for one n: vertices, spine, and the named matrices.

    m = n - 1 throughout.  A (m^2 x n^2) drops the last row and column of a
    matrix; B (n^2 x m^2) rebuilds a permutation matrix from its upper-left
    block up to the translation a; C (m^2 x m^2, |det| = 1) and b move the
    spine onto {0, e_1, ..., e_(n-1)}; D (m(m-1) x m^2) drops the first m
    coordinates, projecting away the repositioned spine span.  The maps and
    J are integer rows, and the vectors integer tuples.
    """

    n: int
    m: int
    perms: tuple[tuple[int, ...], ...]
    vertices: tuple[IntVector, ...]
    spine_perms: tuple[tuple[int, ...], ...]
    spine_vectors: tuple[IntVector, ...]
    spine_vertex_indices: tuple[int, ...]
    a_map: IntRows
    b_map: IntRows
    c_map: IntRows
    d_map: IntRows
    a_vec: IntVector
    b_vec: IntVector
    j_mat: IntRows


def _build_a(n: int) -> list[list[int]]:
    m = n - 1
    rows = []
    for r in range(m):
        for i in range(m):
            row = [0] * (n * n)
            row[r * n + i] = 1
            rows.append(row)
    return rows


def _build_b(n: int) -> list[list[int]]:
    m = n - 1
    rows = []
    for r in range(m):  # diagonal blocks: identity over minus-ones row
        for i in range(m):
            row = [0] * (m * m)
            row[r * m + i] = 1
            rows.append(row)
        row = [0] * (m * m)
        for j in range(m):
            row[r * m + j] = -1
        rows.append(row)
    for i in range(m):  # final block row: negated copies in every block
        row = [0] * (m * m)
        for c in range(m):
            row[c * m + i] = -1
        rows.append(row)
    row = [1] * (m * m)
    rows.append(row)
    return rows


def _build_a_vec(n: int) -> list[int]:
    entries = []
    for _ in range(n - 1):
        entries.extend([0] * (n - 1) + [1])
    entries.extend([1] * (n - 1) + [-(n - 2)])
    return entries


def _build_c(n: int) -> list[list[int]]:
    m = n - 1
    size = m * m
    if n == 2:
        # The generic row pattern starts at n = 3; for n = 2 the affine map
        # z -> -z + 1 swaps the two spine images 1 and 0 into 0 and 1.
        return [[-1]]
    rows = []
    for r in range(n - 1):
        row = [0] * size
        row[r + 1] = 1
        rows.append(row)
    row = [0] * size
    for c in range(n):
        row[c] = 1
    rows.append(row)
    for r in range(n, size):
        row = [0] * size
        row[r - n] = -1
        row[r] = 1
        rows.append(row)
    return rows


def _build_b_vec(n: int) -> list[int]:
    m = n - 1
    size = m * m
    if n == 2:
        return [1]
    return [-1 if i == n - 1 else 0 for i in range(size)]


def _build_d(n: int) -> list[list[int]]:
    m = n - 1
    rows = []
    for i in range(m * (m - 1)):
        row = [0] * (m * m)
        row[m + i] = 1
        rows.append(row)
    return rows


def birkhoff_context(n: int) -> BirkhoffContext:
    """Build and self-check the context; transcription bugs surface here."""
    if not 2 <= n <= 5:
        raise BirkhoffError(f"n = {n} outside the supported range 2..5")
    m = n - 1
    perms = tuple(itertools.permutations(range(n)))
    vertices = tuple(permutation_vector(p) for p in perms)
    shift = tuple((i + 1) % n for i in range(n))
    spine_perms = []
    cur = tuple(range(n))
    for _ in range(n):
        spine_perms.append(cur)
        cur = tuple(shift[cur[i]] for i in range(n))
    spine_vectors = tuple(permutation_vector(p) for p in spine_perms)
    spine_idx = tuple(perms.index(p) for p in spine_perms)

    a_map, b_map, c_map, d_map = (
        tuple(map(tuple, build(n))) for build in (_build_a, _build_b, _build_c, _build_d)
    )
    j_mat = tuple(tuple(2 if i == j else 1 for j in range(m)) for i in range(m))
    ctx = BirkhoffContext(
        n,
        m,
        perms,
        vertices,
        tuple(spine_perms),
        spine_vectors,
        spine_idx,
        a_map,
        b_map,
        c_map,
        d_map,
        tuple(_build_a_vec(n)),
        tuple(_build_b_vec(n)),
        j_mat,
    )

    # vertices[0] is the identity permutation.
    if tuple(matvec(a_map, vertices[0])) != permutation_vector(range(m)):
        raise BirkhoffError("dropping the last row and column broke on the identity")
    for v in vertices:
        rebuilt = matvec(b_map, matvec(a_map, v))
        if tuple(x + y for x, y in zip(rebuilt, ctx.a_vec)) != v:
            raise BirkhoffError("reconstruction from the truncated matrix failed")
    targets = {(0,) * (m * m)} | {
        tuple(int(j == i) for j in range(m * m)) for i in range(n - 1)
    }
    if {_reposition(ctx, u) for u in spine_vectors} != targets:
        raise BirkhoffError("spine did not land on the coordinate vectors")
    return ctx


@dataclass(frozen=True)
class DeterminantReport:
    det_btb: Fraction
    det_c_abs: Fraction
    det_j: Fraction
    btb_ok: bool
    c_ok: bool
    j_ok: bool
    block_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.btb_ok and self.c_ok and self.j_ok and self.block_ok


def block_matrix(a: Sequence[Sequence], t: int) -> tuple[tuple, ...]:
    """Rows of the block grid with 2A on the diagonal and A off it, t block
    rows, for A given by its rows."""
    return tuple(
        tuple((2 if bi == bj else 1) * x for bj in range(t) for x in row)
        for bi in range(t)
        for row in a
    )


def determinant_identities(ctx: BirkhoffContext) -> DeterminantReport:
    """det(B^T B) = n^(2m), |det C| = 1, det J = n, and the block identity
    det(block(J, m)) = (m+1)^m det(J)^m realized by B^T B itself."""
    n, m = ctx.n, ctx.m
    cols = list(zip(*ctx.b_map))
    det_btb = Fraction(int_det([[int_dot(u, w) for w in cols] for u in cols]))
    det_c = abs(det(ctx.c_map))
    det_j = det(ctx.j_mat)
    blk = det(block_matrix(ctx.j_mat, m))
    block_ok = blk == (m + 1) ** m * det_j**m and blk == det_btb
    return DeterminantReport(
        det_btb,
        det_c,
        det_j,
        det_btb == Fraction(n) ** (2 * m),
        det_c == 1,
        det_j == n,
        block_ok,
    )


def projected_birkhoff(ctx: BirkhoffContext) -> Polytope:
    """Image polytope after truncation, repositioning, and spine projection."""
    n, m = ctx.n, ctx.m
    if m * (m - 1) == 0:
        raise BirkhoffError(
            f"projection target has dimension {m * (m - 1)}; nothing to build for n = {n}"
        )
    images = _projected_images(ctx)
    for i in ctx.spine_vertex_indices:
        if any(images[i]):
            raise BirkhoffError("a spine vertex has a nonzero projected image")
    # The spine images are the origin, interior for n >= 3, and every other
    # image is a vertex, by (i) of the triangulation.ShadowMap docstring: the
    # map's kernel on the hull is the spine's span.  _vertex_polytope checks.
    spine_set = set(ctx.spine_vertex_indices)
    p = _vertex_polytope([v for i, v in enumerate(images) if i not in spine_set])
    if n >= 3 and not (
        p.dim == m * (m - 1) and _strictly_inside((0,) * (m * (m - 1)), p)
    ):
        raise BirkhoffError("origin should be interior to the projected polytope")
    return p


def _reposition(ctx: BirkhoffContext, v: Sequence[int]) -> IntVector:
    """C(A v) + b, which moves the spine onto {0, e_1, ..., e_(n-1)}."""
    return tuple(x + y for x, y in zip(matvec(ctx.c_map, matvec(ctx.a_map, v)), ctx.b_vec))


def _projected_images(ctx: BirkhoffContext) -> list[IntVector]:
    """D(C(A v) + b) for every vertex v."""
    return [tuple(matvec(ctx.d_map, _reposition(ctx, v))) for v in ctx.vertices]


def _strictly_inside(x: Sequence, p: Polytope) -> bool:
    """Whether the rational point x is in p's affine hull, on no facet
    hyperplane of p and beyond none, by the validator's `point_table`; for a
    full-dimensional p that is the interior."""
    return point_table(p, [x])[2] == [0]


@dataclass(frozen=True)
class VolumeRelationReport:
    n: int
    vol_ab: Fraction
    vol_birkhoff: Fraction
    vol_projected: Fraction
    relation_ok: bool
    cross_check_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.relation_ok and self.cross_check_ok


def verify_birkhoff_volume_relation(ctx: BirkhoffContext) -> VolumeRelationReport:
    """Check binom(m^2, n-1) vol(B) = vol(projected) n^(n-1) / (n-1)!.

    vol(B) is n^(n-1) times the volume of the truncated polytope, which is
    full-dimensional and triangulated directly; the projected polytope is
    triangulated independently.  The cross check runs the generic projection
    volume law on the repositioned polytope with its coordinate-vector spine.
    """
    n, m = ctx.n, ctx.m
    if n not in (3, 4):
        raise BirkhoffError("the volume relation is computed for n = 3 or 4 only")
    truncated = _vertex_polytope([matvec(ctx.a_map, v) for v in ctx.vertices])
    vol_ab = _full_volume(truncated, BirkhoffError, "truncated polytope")
    vol_b = Fraction(n) ** (n - 1) * vol_ab
    projected = projected_birkhoff(ctx)
    vol_hat = _full_volume(projected, BirkhoffError, "projected polytope")
    lhs = math.comb(m * m, n - 1) * vol_b
    rhs = vol_hat * Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (n - 1)
    relation_ok = lhs == rhs

    # _vertex_polytope keeps the input order and C is unimodular, so vertex i
    # of the repositioned polytope is the image of vertex i.
    repositioned = _vertex_polytope([_reposition(ctx, v) for v in ctx.vertices])
    rep = lifting_relation_report(spine(repositioned, ctx.spine_vertex_indices))
    # The coordinate-drop projection is an isometry on the spine's
    # orthogonal complement, so the shadow volume is the projected volume.
    cross_ok = rep.holds and rep.vol_shadow_sq == vol_hat * vol_hat
    return VolumeRelationReport(n, vol_ab, vol_b, vol_hat, relation_ok, cross_ok)
