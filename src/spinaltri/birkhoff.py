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

from .linalg import QMatrix, QVector, det, int_det, int_dot
from .polytope import Polytope, extreme_points, make_polytope
from .spine import spine
from .volume import lifting_relation_report, polytope_volume


class BirkhoffError(ValueError):
    pass


def _permutation_ints(perm: Sequence[int]) -> list[int]:
    n = len(perm)
    entries = [0] * (n * n)
    for i, j in enumerate(perm):
        entries[i * n + j] = 1
    return entries


def permutation_vector(perm: Sequence[int]) -> QVector:
    """Flatten the permutation matrix with rows concatenated."""
    return QVector(_permutation_ints(perm))


@dataclass(frozen=True)
class BirkhoffContext:
    """All explicit data for one n: vertices, spine, and the named matrices.

    m = n - 1 throughout.  A (m^2 x n^2) drops the last row and column of a
    matrix; B (n^2 x m^2) rebuilds a permutation matrix from its upper-left
    block up to the translation a; C (m^2 x m^2, |det| = 1) and b move the
    spine onto {0, e_1, ..., e_(n-1)}; D (m(m-1) x m^2) drops the first m
    coordinates, projecting away the repositioned spine span.
    """

    n: int
    m: int
    perms: tuple[tuple[int, ...], ...]
    vertices: tuple[QVector, ...]
    spine_perms: tuple[tuple[int, ...], ...]
    spine_vectors: tuple[QVector, ...]
    spine_vertex_indices: tuple[int, ...]
    a_map: QMatrix
    b_map: QMatrix
    c_map: QMatrix
    d_map: QMatrix
    a_vec: QVector
    b_vec: QVector
    j_mat: QMatrix


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


def _imatvec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [int_dot(row, v) for row in rows]


def _int_rows(m: QMatrix) -> list[list[int]]:
    """The rows of a context map, which is an integer matrix."""
    return [[x.numerator for x in row] for row in m.entries]


def birkhoff_context(n: int, *, allow_large: bool = False) -> BirkhoffContext:
    """Build and self-check the context; transcription bugs surface here."""
    limit = 6 if allow_large else 5
    if not 2 <= n <= limit:
        raise BirkhoffError(
            f"n = {n} outside the supported range 2..{limit}"
            + ("" if allow_large else " (pass allow_large=True for n = 6)")
        )
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
    index_of = {p: i for i, p in enumerate(perms)}
    spine_idx = tuple(index_of[p] for p in spine_perms)

    a_int, b_int, c_int = _build_a(n), _build_b(n), _build_c(n)
    a_off, b_off = _build_a_vec(n), _build_b_vec(n)
    j_mat = QMatrix(
        [[2 if i == j else 1 for j in range(m)] for i in range(m)], cols=m
    )

    # The self-checks run on the maps' integer rows.
    ident = _permutation_ints(tuple(range(n)))
    if _imatvec(a_int, ident) != _permutation_ints(tuple(range(m))):
        raise BirkhoffError("dropping the last row and column broke on the identity")
    for p in perms:
        v = _permutation_ints(p)
        rebuilt = _imatvec(b_int, _imatvec(a_int, v))
        if [x + y for x, y in zip(rebuilt, a_off)] != v:
            raise BirkhoffError("reconstruction from the truncated matrix failed")
    targets = {(0,) * (m * m)} | {
        tuple(int(j == i) for j in range(m * m)) for i in range(n - 1)
    }
    images = set()
    for p in spine_perms:
        moved = _imatvec(c_int, _imatvec(a_int, _permutation_ints(p)))
        images.add(tuple(x + y for x, y in zip(moved, b_off)))
    if images != targets:
        raise BirkhoffError("spine did not land on the coordinate vectors")

    return BirkhoffContext(
        n,
        m,
        perms,
        vertices,
        tuple(spine_perms),
        spine_vectors,
        spine_idx,
        QMatrix(a_int, cols=n * n),
        QMatrix(b_int, cols=m * m),
        QMatrix(c_int, cols=m * m),
        QMatrix(_build_d(n), cols=m * m),
        QVector(a_off),
        QVector(b_off),
        j_mat,
    )


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


def block_matrix(a: QMatrix, t: int) -> QMatrix:
    """Block grid with 2A on the diagonal and A off it, t block rows."""
    k = a.rows
    rows = []
    for bi in range(t):
        for i in range(k):
            row = []
            for bj in range(t):
                f = 2 if bi == bj else 1
                row.extend(f * x for x in a.entries[i])
            rows.append(row)
    return QMatrix(rows, cols=k * t)


def determinant_identities(ctx: BirkhoffContext) -> DeterminantReport:
    """det(B^T B) = n^(2m), |det C| = 1, det J = n, and the block identity
    det(block(J, m)) = (m+1)^m det(J)^m realized by B^T B itself."""
    n, m = ctx.n, ctx.m
    cols = list(zip(*_int_rows(ctx.b_map)))
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
        if not images[i].is_zero():
            raise BirkhoffError("a spine vertex has a nonzero projected image")
    ext = extreme_points(images)
    p = make_polytope(ext)
    if n >= 3 and not (
        p.dim == m * (m - 1) and _strictly_inside(QVector.zero(m * (m - 1)), p)
    ):
        raise BirkhoffError("origin should be interior to the projected polytope")
    return p


def _projected_images(ctx: BirkhoffContext) -> list[QVector]:
    """D(C(A v) + b) for every vertex v, on the maps' integer rows."""
    a, c, d = _int_rows(ctx.a_map), _int_rows(ctx.c_map), _int_rows(ctx.d_map)
    b = [x.numerator for x in ctx.b_vec]
    images = []
    for v in ctx.vertices:
        moved = _imatvec(c, _imatvec(a, [x.numerator for x in v]))
        images.append(QVector(_imatvec(d, [x + y for x, y in zip(moved, b)])))
    return images


def _strictly_inside(x: QVector, p: Polytope) -> bool:
    # For a full-dimensional p, the interior is strict on every facet.
    return all(f.normal.dot(x) < f.offset for f in p.facets())


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


def verify_birkhoff_volume_relation(
    ctx: BirkhoffContext, *, cross_check: bool = True
) -> VolumeRelationReport:
    """Check binom(m^2, n-1) vol(B) = vol(projected) n^(n-1) / (n-1)!.

    vol(B) is n^(n-1) times the volume of the truncated polytope, which is
    full-dimensional and triangulated directly; the projected polytope is
    triangulated independently.  The cross check runs the generic projection
    volume law on the repositioned polytope with its coordinate-vector spine.
    """
    n, m = ctx.n, ctx.m
    if n not in (3, 4):
        raise BirkhoffError("the volume relation is computed for n = 3 or 4 only")
    truncated = make_polytope([ctx.a_map @ v for v in ctx.vertices])
    vol_ab = polytope_volume(truncated).volume
    if vol_ab is None:
        raise BirkhoffError("the truncated polytope is not full-dimensional")
    vol_b = Fraction(n) ** (n - 1) * vol_ab
    projected = projected_birkhoff(ctx)
    vol_hat = polytope_volume(projected).volume
    if vol_hat is None:
        raise BirkhoffError("the projected polytope is not full-dimensional")
    lhs = math.comb(m * m, n - 1) * vol_b
    rhs = vol_hat * Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (n - 1)
    relation_ok = lhs == rhs

    cross_ok = True
    if cross_check:
        repositioned = make_polytope(
            [ctx.c_map @ (ctx.a_map @ v) + ctx.b_vec for v in ctx.vertices]
        )
        index_of = {v.entries: i for i, v in enumerate(repositioned.vertices)}
        spine_idx = [
            index_of[(ctx.c_map @ (ctx.a_map @ u) + ctx.b_vec).entries]
            for u in ctx.spine_vectors
        ]
        rep = lifting_relation_report(spine(repositioned, spine_idx))
        # The coordinate-drop projection is an isometry on the spine's
        # orthogonal complement, so the shadow volume is the projected volume.
        cross_ok = rep.holds and rep.vol_shadow_sq == vol_hat * vol_hat
    return VolumeRelationReport(n, vol_ab, vol_b, vol_hat, relation_ok, cross_ok)
