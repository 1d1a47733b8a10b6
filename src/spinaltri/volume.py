"""Exact polytope volumes via triangulation, and the projection volume law.

Volumes are computed on the integer hull coordinates of the polytope's frame:
the hull coordinates of the vertices are ``icoords / scale``, so a cell with
signed integer determinant D has relative volume |D| / (scale^k k!), and a
triangulation's relative volume is one division of the summed |D|.  For a
full-dimensional polytope the relative volume is the volume.  For one whose
affine hull is a proper subspace, with hull basis B, every cell's volume
carries the same irrational factor sqrt(det G), G = B^T B the Gram matrix of
the basis (``gram_det``; the integer basis vscale * B has Gram determinant
vscale^(2k) det G), so the rational relative volumes are summed first and
only the square of the total, relvol^2 det G, is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import int_det
from .polytope import Polytope
from .spine import Spine
from .triangulation import pulling_triangulation, shadow, shadow_polytope


@dataclass(frozen=True)
class VolumeReport:
    dim: int
    n_simplices: int
    sq_volume: Fraction
    volume: Fraction | None


def cell_det(icoords: Sequence[Sequence[int]], cell: Sequence[int]) -> int:
    """Signed determinant of the edge vectors from a cell's first vertex,
    on integer coordinates."""
    base = icoords[cell[0]]
    return int_det([[a - b for a, b in zip(icoords[i], base)] for i in cell[1:]])


def triangulation_relative_volume(p: Polytope, simplices) -> Fraction:
    fr = p.frame()
    total = sum(abs(cell_det(fr.icoords, c)) for c in simplices)
    return Fraction(total, fr.scale**fr.dim * math.factorial(fr.dim))


def polytope_relative_volume(p: Polytope) -> Fraction:
    """Hull-frame volume of p via a pulling triangulation (cached)."""
    if p._relvol is None:
        t = pulling_triangulation(p)
        p._relvol = triangulation_relative_volume(p, t.simplices)
    return p._relvol


def polytope_volume(p: Polytope, order: Sequence[int] | None = None) -> VolumeReport:
    """Triangulate-and-sum volume.

    Full-dimensional polytopes report the rational volume and its square;
    lower-dimensional ones, a point among them, report the (rational)
    squared volume only.  An identity frame has ``gram_det`` 1.
    """
    t = pulling_triangulation(p, order)
    rel = triangulation_relative_volume(p, t.simplices)
    fr = p.frame()
    return VolumeReport(
        fr.dim, t.n_simplices, rel * rel * fr.gram_det, rel if fr.identity else None
    )


@dataclass(frozen=True)
class LiftingRelationReport:
    """Both sides of the squared volume relation

    C(d, n-1)^2 vol(P)^2 = vol(U)^2 vol(shadow)^2
    for a spine U of size n in a d-dimensional polytope P."""

    binom: int
    vol_p_sq: Fraction
    vol_spine_sq: Fraction
    vol_shadow_sq: Fraction

    @property
    def lhs(self) -> Fraction:
        return self.binom**2 * self.vol_p_sq

    @property
    def rhs(self) -> Fraction:
        return self.vol_spine_sq * self.vol_shadow_sq

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def lifting_relation_report(s: Spine) -> LiftingRelationReport:
    p = s.polytope
    d = p.dim
    vol_p_sq = _sq_volume(p)
    sm = shadow(s)
    vol_u_sq = sm.spine_sq_volume
    vol_shadow_sq = _sq_volume(shadow_polytope(sm))
    return LiftingRelationReport(
        math.comb(d, s.n - 1), vol_p_sq, vol_u_sq, vol_shadow_sq
    )


def _sq_volume(p: Polytope) -> Fraction:
    """vol(p)^2 from the polytope's cached relative volume and its frame."""
    return polytope_relative_volume(p) ** 2 * p.frame().gram_det
