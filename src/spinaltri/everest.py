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
    IntRows,
    QVector,
    det,
    gram_sq_volume,
    kernel_basis,
    matvec,
    rank,
    sqrt_rational,
)
from .polytope import Polytope, _vertex_polytope
from .spine import Spine, spine
from .volume import _full_volume


# Desk-scale cap on the (s+1)^(n+1) sign patterns of vertex_families, reached
# by E(5, 3) and E(11, 1); selftest, the tests and the scripts use <= 256.
MAX_SIGN_PATTERNS = 4096

# Desk-scale cap on (n+1)s, the largest factorial of the closed form; the
# slowest c_constant call at the cap, E(4, 2000), takes about 0.05 s on a
# 2-vCPU Intel Xeon with Python 3.11.7, and E(300, 300) took 3.7 s.
MAX_FORMULA_FACTORIAL = 10_000

# Desk-scale cap on the dimension ns of the Everest hull that everest_polytope
# builds; the closed form and the lifting route do not build it.
MAX_HULL_DIM = 6


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


@dataclass(frozen=True)
class Families:
    v_minus_one: IntRows
    v_zero: IntRows
    v_one: IntRows
    everest: IntRows


def vertex_families(params: EverestParams) -> Families:
    """Generate the sign-pattern vertex families and check their sizes.

    Each family is a tuple of integer points of R^(n*s), each read as n
    rows of length s.  v_minus_one: every choice of n rows, each 0 or -e_j
    (these are the simplotope vertices); v_zero: one such row repeated n
    times; v_one: pointwise differences v - u with v in v_minus_one and u a
    nonzero member of v_zero.  The union of v_one and v_minus_one minus the origin is
    the vertex set of the Everest polytope; both are kept in first-seen
    order.  Building v_one visits (s+1)^(n+1) pattern pairs; past
    MAX_SIGN_PATTERNS, EverestError is raised before any is built, by a
    product that stops at the cap.
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
    rows = [(0,) * s] + [tuple(-int(t == j) for t in range(s)) for j in range(s)]
    minus = tuple(sum(pick, ()) for pick in itertools.product(rows, repeat=n))
    zero = tuple(row * n for row in rows)
    one = tuple(
        dict.fromkeys(
            tuple(a - b for a, b in zip(v, u)) for v in minus for u in zero[1:]
        )
    )
    ever = tuple(dict.fromkeys(v for v in minus + one if any(v)))

    if len(minus) != (s + 1) ** n:
        raise EverestError("family size mismatch for the -1 patterns")
    if len(zero) != s + 1:
        raise EverestError("family size mismatch for the single-column patterns")
    if len(one) != s * (s + 1) ** n - s + 1:
        raise EverestError("family size mismatch for the +1 patterns")
    if len(ever) != (s + 1) ** (n + 1) - s - 1:
        raise EverestError("vertex count mismatch")
    return Families(minus, zero, one, ever)


def g_eval(params: EverestParams, x: Sequence) -> Fraction:
    """The gauge sum_j max(0, max_i x_ij) + max(0, max_i -sum_j x_ij) with
    x_ij = x[i * s + j]; x lies in E(n, s) iff it is at most 1."""
    n, s = params.n, params.s
    if len(x) != n * s:
        raise DimensionError(f"expected dimension {n * s}, got {len(x)}")
    rows = [x[i * s : (i + 1) * s] for i in range(n)]
    column_maxima = sum(max(0, *col) for col in zip(*rows))
    return Fraction(column_maxima + max(0, *(-sum(row) for row in rows)))


def everest_polytope(params: EverestParams) -> Polytope:
    """Polytope on the generated vertices, validated to be in convex position
    and to sit on the gauge's unit level set; EverestError past MAX_HULL_DIM."""
    return _everest_polytope(params, None)


def _everest_polytope(params: EverestParams, fam: Families | None) -> Polytope:
    """everest_polytope on the families fam of params, or on its own if fam
    is None; the dimension cap is checked before any family is built."""
    if params.dim > MAX_HULL_DIM:
        raise EverestError(
            f"dimension {params.dim} exceeds the desk-scale cap {MAX_HULL_DIM}"
        )
    vertices = (fam or vertex_families(params)).everest
    for v in vertices:
        if g_eval(params, v) != 1:
            raise EverestError(
                f"claimed vertex {QVector(v)!r} is not on the unit level set"
            )
    return _vertex_polytope(vertices)


def simplotope_with_spine(n: int, s: int) -> tuple[Polytope, Spine]:
    """The n-fold product of the s-simplex conv{0, -e_1, ..., -e_s}, whose
    vertex set is exactly the v_minus_one family of (n, s), and the
    single-column family v_zero, validated to be a spine."""
    fam = vertex_families(EverestParams(n, s))
    p = _vertex_polytope(fam.v_minus_one)
    index_of = {v: i for i, v in enumerate(fam.v_minus_one)}
    return p, spine(p, [index_of[u] for u in fam.v_zero])


def everest_verify(params: EverestParams, lifting: bool = False) -> dict[str, bool]:
    """The checks of E(n, s) by name, in report order, on one build each of
    the E(n, s) and E(n+1, s) families.  The first two hold once reached:
    vertex_families raises on a wrong family size, and the hull on a vertex
    off the gauge's unit level."""
    fam = vertex_families(params)
    up = vertex_families(EverestParams(params.n + 1, params.s))
    checks = {"family_cardinalities": True, "vertices_on_unit_level": True}
    checks.update(_se_checks(params, fam, up))
    hull_volume = _full_volume(_everest_polytope(params, fam), EverestError, "Everest hull")
    checks["hull_volume_matches_formula"] = hull_volume == c_constant(params)
    if lifting:
        lifted = _volume_by_lifting(params, up)
        checks["lifting_volume_matches_formula"] = lifted == c_constant(params)
    return checks


def se_matrix(params: EverestParams) -> IntRows:
    """The rows of the (ns) x ((n+1)s) block matrix (I | -I ... -I stacked)
    that carries the (n+1, s)-simplotope onto the (n, s)-Everest polytope:
    row i*s + j has 1 at column i*s + j and -1 at column n*s + j."""
    n, s = params.n, params.s
    return tuple(
        tuple(int(c == i * s + j) - int(c == n * s + j) for c in range((n + 1) * s))
        for i in range(n)
        for j in range(s)
    )


def se_checks(params: EverestParams) -> dict[str, bool]:
    """The carrier matrix against the (n+1, s) families, by check name: the
    image of the non-spine V_-1 points is the vertex set of E(n, s), the
    spine V_0 is killed, and the spine spans the kernel.  The families'
    sign-pattern cap is checked before the carrier is built."""
    up = vertex_families(EverestParams(params.n + 1, params.s))
    return _se_checks(params, vertex_families(params), up)


def _se_checks(params: EverestParams, fam: Families, up: Families) -> dict[str, bool]:
    """se_checks on the families fam of (n, s) and up of (n+1, s)."""
    s = params.s
    pi = se_matrix(params)
    zero_set = set(up.v_zero)
    images = {tuple(matvec(pi, v)) for v in up.v_minus_one if v not in zero_set}
    expected = set(fam.everest)
    basis = kernel_basis(pi)
    nonzero = [u for u in up.v_zero if any(u)]
    return {
        "se_image_is_vertex_set": images == expected,
        "se_kills_spine": not any(any(matvec(pi, u)) for u in up.v_zero),
        "kernel_spanned_by_spine": len(basis) == s and rank(basis + nonzero) == s,
    }


def se_square_matrices(params: EverestParams) -> tuple[IntRows, IntRows]:
    """Rows of the square extension of the carrier matrix and of the
    coordinate projection.

    The extension appends the last-s-coordinates identity block to the
    carrier's rows, making an invertible ((n+1)s)^2 matrix; the projection
    keeps the first ns coordinates, so projection times extension is the
    carrier.  Checked here: the transformed single-column family spans the
    projection's kernel.  The families' sign-pattern cap is checked before
    the carrier is built.
    """
    return _square_matrices(params, vertex_families(EverestParams(params.n + 1, params.s)))


def _square_matrices(params: EverestParams, fam_up: Families) -> tuple[IntRows, IntRows]:
    """se_square_matrices on the (n+1, s) families fam_up, built by the caller."""
    n, s = params.n, params.s
    width = (n + 1) * s
    pi_tilde = se_matrix(params) + tuple(
        tuple(int(c == n * s + j) for c in range(width)) for j in range(s)
    )
    proj = tuple(tuple(int(c == i) for c in range(width)) for i in range(n * s))
    transformed = [matvec(pi_tilde, u) for u in fam_up.v_zero if any(u)]
    if rank(transformed) != s or any(any(w[: n * s]) for w in transformed):
        raise EverestError("transformed spine does not span the projection kernel")
    return pi_tilde, proj


def c_constant(params: EverestParams) -> Fraction:
    """Closed-form volume ((n+1)s)! / ((ns)! (s!)^(n+1)); EverestError past
    MAX_FORMULA_FACTORIAL, before any factorial is taken."""
    n, s = params.n, params.s
    if (n + 1) * s > MAX_FORMULA_FACTORIAL:
        raise EverestError(
            f"the closed form of E({n},{s}) needs ((n+1)s)! with (n+1)s > "
            f"{MAX_FORMULA_FACTORIAL}, over the desk-scale cap"
        )
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
        return _full_volume(everest_polytope(params), EverestError, "Everest hull")
    if method == "lifting":
        # The (n+1, s) families cap n and s before anything else is built.
        return _volume_by_lifting(params, vertex_families(EverestParams(params.n + 1, params.s)))
    raise EverestError(f"unknown method {method!r}")


def _volume_by_lifting(params: EverestParams, fam_up: Families) -> Fraction:
    """Volume via the transformed simplotope one dimension up, from the
    (n+1, s) families fam_up.

    The square extension maps the (n+1, s)-simplotope to a polytope whose
    spine (the transformed single-column family) spans the last s
    coordinates; the orthogonal shadow of that polytope is an isometric copy
    of E(n, s), so the projection volume law yields the Everest volume from
    the (easily triangulated) transformed simplotope and the spine simplex.
    """
    pi_tilde, _ = _square_matrices(params, fam_up)
    if abs(det(pi_tilde)) != 1:
        raise EverestError("square extension is not volume preserving")
    verts = [tuple(matvec(pi_tilde, v)) for v in fam_up.v_minus_one]
    p = _vertex_polytope(verts)
    index_of = {v: i for i, v in enumerate(verts)}
    sp = spine(p, [index_of[tuple(matvec(pi_tilde, u))] for u in fam_up.v_zero])
    vol_p = _full_volume(p, EverestError, "transformed simplotope")
    vol_u_sq = gram_sq_volume(sp.points(), sp.n - 1)
    vol_u = sqrt_rational(vol_u_sq)
    if vol_u is None:
        raise EverestError("transformed spine simplex volume is not rational")
    d = p.dim
    return math.comb(d, sp.n - 1) * vol_p / vol_u
