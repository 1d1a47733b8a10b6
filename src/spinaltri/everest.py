"""The Everest polytope, its vertex families, and the simplotope route.

E(n, s) is the sublevel set g <= 1 in R^(n*s) of a piecewise-linear gauge g
built from column maxima and row-sum deficits.  Its vertices split into
explicit sign-pattern families, it is the image of a product of simplices
one dimension up under an explicit integer matrix, and its exact volume is
((n+1)s)! / ((ns)! (s!)^(n+1)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    DimensionError,
    QMatrix,
    QVector,
    det,
    gram_sq_volume,
    kernel_basis,
    rank,
    sqrt_rational,
)
from .polytope import Polytope, make_polytope
from .spine import Spine, spine
from .volume import polytope_volume


# Desk-scale cap on the (s+1)^(n+1) sign patterns of vertex_families, reached
# by E(5, 3) and E(11, 1); selftest, the tests and the scripts use <= 256.
MAX_SIGN_PATTERNS = 4096


class EverestError(ValueError):
    pass


@dataclass(frozen=True)
class EverestParams:
    n: int
    s: int

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise EverestError("both parameters must be positive")

    @property
    def dim(self) -> int:
        return self.n * self.s


def unit_row(s: int, j: int) -> QVector:
    """The j-th s-dimensional unit row vector, with unit_row(s, 0) = 0."""
    if not 0 <= j <= s:
        raise EverestError(f"unit index {j} out of range 0..{s}")
    return QVector([1 if t == j - 1 else 0 for t in range(s)])


def _stack(rows: Sequence[QVector]) -> QVector:
    out: tuple = ()
    for r in rows:
        out = out + r.entries
    return QVector(out)


@dataclass(frozen=True)
class VertexFamily:
    kind: str
    points: tuple[QVector, ...]


@dataclass(frozen=True)
class Families:
    v_minus_one: VertexFamily
    v_zero: VertexFamily
    v_one: VertexFamily
    everest: VertexFamily


def vertex_families(params: EverestParams) -> Families:
    """Generate the sign-pattern vertex families and check their sizes.

    v_minus_one: one optional -1 per row (these are the simplotope vertices);
    v_zero: all -1 entries in a single shared column;
    v_one: pointwise differences v - u with v in v_minus_one and u a nonzero
    member of v_zero.  The union of v_one and v_minus_one minus the origin is
    the vertex set of the Everest polytope.  Building v_one visits
    (s+1)^(n+1) pattern pairs; past MAX_SIGN_PATTERNS, EverestError is
    raised before any is built, by a product that stops at the cap.
    """
    n, s = params.n, params.s
    count = 1
    for _ in range(n + 1):
        count *= s + 1
        if count > MAX_SIGN_PATTERNS:
            raise EverestError(
                f"the vertex families of E({n},{s}) need (s+1)^(n+1) > "
                f"{MAX_SIGN_PATTERNS} sign patterns, over the desk-scale cap"
            )
    minus = []
    for js in itertools.product(range(s + 1), repeat=n):
        minus.append(_stack([-unit_row(s, j) for j in js]))
    zero = [_stack([-unit_row(s, j)] * n) for j in range(s + 1)]
    one_set: dict[tuple, QVector] = {}
    for v in minus:
        for u in zero[1:]:
            w = v - u
            one_set.setdefault(w.entries, w)
    one = list(one_set.values())
    ever_set: dict[tuple, QVector] = {}
    for v in minus + one:
        if not v.is_zero():
            ever_set.setdefault(v.entries, v)
    ever = list(ever_set.values())

    if len(minus) != (s + 1) ** n:
        raise EverestError("family size mismatch for the -1 patterns")
    if len(zero) != s + 1:
        raise EverestError("family size mismatch for the single-column patterns")
    if len(one) != s * (s + 1) ** n - s + 1:
        raise EverestError("family size mismatch for the +1 patterns")
    if len(ever) != (s + 1) ** (n + 1) - s - 1:
        raise EverestError("vertex count mismatch")
    return Families(
        VertexFamily("v_minus_one", tuple(minus)),
        VertexFamily("v_zero", tuple(zero)),
        VertexFamily("v_one", tuple(one)),
        VertexFamily("everest_vertices", tuple(ever)),
    )


@dataclass(frozen=True)
class GaugeDetail:
    column_maxima: tuple[Fraction, ...]
    row_deficits: tuple[Fraction, ...]
    deficit_max: Fraction
    value: Fraction


def g_eval_detail(params: EverestParams, x: QVector) -> GaugeDetail:
    """Evaluate the gauge and expose its intermediate quantities."""
    n, s = params.n, params.s
    if len(x) != n * s:
        raise DimensionError(f"expected dimension {n * s}, got {len(x)}")
    column_maxima = tuple(
        max(Fraction(0), *(x[i * s + j] for i in range(n))) for j in range(s)
    )
    row_deficits = tuple(
        -sum((x[i * s + j] for j in range(s)), Fraction(0)) for i in range(n)
    )
    deficit_max = max(Fraction(0), *row_deficits)
    return GaugeDetail(
        column_maxima,
        row_deficits,
        deficit_max,
        sum(column_maxima, Fraction(0)) + deficit_max,
    )


def g_eval(params: EverestParams, x: QVector) -> Fraction:
    return g_eval_detail(params, x).value


def everest_membership(params: EverestParams, x: QVector) -> bool:
    return g_eval(params, x) <= 1


def everest_polytope(params: EverestParams, *, max_dim: int = 6) -> Polytope:
    """Polytope on the generated vertices, validated to be in convex position
    and to sit on the gauge's unit level set."""
    if params.dim > max_dim:
        raise EverestError(
            f"dimension {params.dim} exceeds the desk-scale cap {max_dim}"
        )
    fam = vertex_families(params)
    for v in fam.everest.points:
        if g_eval(params, v) != 1:
            raise EverestError(f"claimed vertex {v!r} is not on the unit level set")
    return make_polytope(fam.everest.points)


def simplotope(n: int, s: int) -> Polytope:
    """The n-fold product of the s-simplex conv{0, -e_1, ..., -e_s}.

    Its vertex set is exactly the v_minus_one family of (n, s), and the
    single-column family v_zero is validated to be a spine.
    """
    p, _ = simplotope_with_spine(n, s)
    return p


def simplotope_with_spine(n: int, s: int) -> tuple[Polytope, Spine]:
    fam = vertex_families(EverestParams(n, s))
    p = make_polytope(fam.v_minus_one.points)
    index_of = {v.entries: i for i, v in enumerate(p.vertices)}
    v0_idx = [index_of[u.entries] for u in fam.v_zero.points]
    return p, spine(p, v0_idx)


def se_matrix(params: EverestParams) -> QMatrix:
    """The (ns) x ((n+1)s) block matrix (I | -I ... -I stacked) that carries
    the (n+1, s)-simplotope onto the (n, s)-Everest polytope."""
    n, s = params.n, params.s
    rows = []
    for i in range(n):
        for j in range(s):
            row = [0] * (n * s + s)
            row[i * s + j] = 1
            row[n * s + j] = -1
            rows.append(row)
    return QMatrix(rows, cols=(n + 1) * s)


def se_checks(params: EverestParams) -> dict[str, bool]:
    """The carrier matrix against the (n+1, s) families, by check name: the
    image of the non-spine V_-1 points is the vertex set of E(n, s), the
    spine V_0 is killed, and the spine spans the kernel."""
    n, s = params.n, params.s
    pi = se_matrix(params)
    up = vertex_families(EverestParams(n + 1, s))
    zero_set = {u.entries for u in up.v_zero.points}
    images = {
        (pi @ v).entries for v in up.v_minus_one.points if v.entries not in zero_set
    }
    expected = {v.entries for v in vertex_families(params).everest.points}
    basis = kernel_basis(pi)
    nonzero = [u for u in up.v_zero.points if not u.is_zero()]
    stacked = QMatrix([list(v) for v in basis + nonzero], cols=(n + 1) * s)
    return {
        "se_image_is_vertex_set": images == expected,
        "se_kills_spine": all((pi @ u).is_zero() for u in up.v_zero.points),
        "kernel_spanned_by_spine": len(basis) == s and rank(stacked) == s,
    }


def se_square_matrices(params: EverestParams) -> tuple[QMatrix, QMatrix]:
    """Square extension of the carrier matrix and the coordinate projection.

    The extension appends the last-s-coordinates identity block, making an
    invertible ((n+1)s)^2 matrix; the projection keeps the first ns
    coordinates.  Checked here: projection @ extension recovers the carrier,
    and the transformed single-column family spans the projection's kernel.
    """
    n, s = params.n, params.s
    pi = se_matrix(params)
    ext_rows = [list(r) for r in pi.entries]
    for j in range(s):
        row = [0] * (n + 1) * s
        row[n * s + j] = 1
        ext_rows.append(row)
    pi_tilde = QMatrix(ext_rows, cols=(n + 1) * s)
    proj_rows = []
    for i in range(n * s):
        row = [0] * (n + 1) * s
        row[i] = 1
        proj_rows.append(row)
    proj = QMatrix(proj_rows, cols=(n + 1) * s)
    if proj @ pi_tilde != pi:
        raise EverestError("square extension does not restrict to the carrier")
    fam_up = vertex_families(EverestParams(n + 1, s))
    transformed = [pi_tilde @ u for u in fam_up.v_zero.points if not u.is_zero()]
    stacked = QMatrix([list(w) for w in transformed], cols=(n + 1) * s)
    if rank(stacked) != s or any(any(w[c] != 0 for c in range(n * s)) for w in transformed):
        raise EverestError("transformed spine does not span the projection kernel")
    return pi_tilde, proj


def c_constant(params: EverestParams) -> Fraction:
    """Closed-form volume ((n+1)s)! / ((ns)! (s!)^(n+1))."""
    n, s = params.n, params.s
    return Fraction(
        math.factorial((n + 1) * s),
        math.factorial(n * s) * math.factorial(s) ** (n + 1),
    )


def everest_volume(params: EverestParams, method: str = "formula") -> Fraction:
    """Volume of E(n, s) by the closed form, by hull triangulation, or by the
    projection volume law applied to the transformed simplotope."""
    if method == "formula":
        return c_constant(params)
    if method == "hull":
        report = polytope_volume(everest_polytope(params))
        if report.volume is None:
            raise EverestError("the Everest hull is not full-dimensional")
        return report.volume
    if method == "lifting":
        return _volume_by_lifting(params)
    raise EverestError(f"unknown method {method!r}")


def _volume_by_lifting(params: EverestParams) -> Fraction:
    """Volume via the transformed simplotope one dimension up.

    The square extension maps the (n+1, s)-simplotope to a polytope whose
    spine (the transformed single-column family) spans the last s
    coordinates; the orthogonal shadow of that polytope is an isometric copy
    of E(n, s), so the projection volume law yields the Everest volume from
    the (easily triangulated) transformed simplotope and the spine simplex.
    """
    n, s = params.n, params.s
    fam_up = vertex_families(EverestParams(n + 1, s))  # caps n and s first
    pi_tilde, _ = se_square_matrices(params)
    if abs(det(pi_tilde)) != 1:
        raise EverestError("square extension is not volume preserving")
    verts = [pi_tilde @ v for v in fam_up.v_minus_one.points]
    p = make_polytope(verts)
    index_of = {v.entries: i for i, v in enumerate(p.vertices)}
    spine_idx = [index_of[(pi_tilde @ u).entries] for u in fam_up.v_zero.points]
    sp = spine(p, spine_idx)
    vol_p = polytope_volume(p).volume
    if vol_p is None:
        raise EverestError("the transformed simplotope is not full-dimensional")
    vol_u_sq = gram_sq_volume(sp.points(), sp.n - 1)
    vol_u = sqrt_rational(vol_u_sq)
    if vol_u is None:
        raise EverestError("transformed spine simplex volume is not rational")
    d = p.dim
    return math.comb(d, sp.n - 1) * vol_p / vol_u
