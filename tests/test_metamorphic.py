"""The paper's identities as relations between answers.

The volume law, cell by cell.  Let s be a cell of a spinal triangulation
of a d-dimensional polytope P along a spine U with k = |U| - 1, and pi s the
folded cell: the origin and the images of s's vertices off U.  With A the
spine's edges from u_0 and W the other edges of s from u_0, the Gram matrix
of [A | W] has determinant det(A^T A) det((pi W)^T pi W), by the Schur
complement, so

    C(d, k)^2 vol(s)^2 = vol(U)^2 vol(pi s)^2

exactly.  Summed over the cells this is the projection volume law, because
`fold` gives a triangulation of the shadow.  Each side is read off cell
determinants: vol(s) on P's frame, vol(pi s) on the shadow's point table
for `star_points`, and vol(U) by `gram_sq_volume`.
"""

import math
from fractions import Fraction

import pytest

from spinaltri.linalg import gram_sq_volume
from spinaltri.polytope import point_table
from spinaltri.spine import enumerate_spines, spine
from spinaltri.triangulation import shadow, spinal_triangulation
from spinaltri.volume import cell_det
from test_shadow_oracle import named_instances, random_instances, skew_instances


def sq_cell_volume(coords, scale, cell, dim, gram_det):
    """vol^2 of the cell on integer hull coordinates / scale in a frame of
    Gram determinant gram_det."""
    rel = Fraction(cell_det(coords, cell), scale**dim * math.factorial(dim))
    return rel * rel * gram_det


def assert_law_cell_by_cell(sp):
    """The law on every cell of the spine's spinal triangulation; the
    number of cells."""
    p, sm = sp.polytope, shadow(sp)
    d, k = p.dim, sp.n - 1
    fr, shadow_fr = p.frame(), sm.polytope.frame()
    coords, scale = point_table(sm.polytope, sm.star_points)[:2]
    vol_u_sq = gram_sq_volume(sp.points(), k)
    star_of = {g: i for i, g in enumerate(sm.lift_indices) if g >= 0}
    cells = spinal_triangulation(sp).simplices
    for c in cells:
        folded = sorted([0] + [star_of[i] for i in c if i not in sp.indices])
        lhs = math.comb(d, k) ** 2 * sq_cell_volume(fr.icoords, fr.scale, c, d, fr.gram_det)
        rhs = vol_u_sq * sq_cell_volume(coords, scale, folded, d - k, shadow_fr.gram_det)
        assert lhs == rhs != 0, (sp.indices, c)
    return len(cells)


@pytest.mark.parametrize("source", [named_instances, random_instances, skew_instances])
def test_volume_law_holds_cell_by_cell(source):
    cells = sum(
        assert_law_cell_by_cell(spine(p, s)) for name, p in source() for s in enumerate_spines(p, 1)
    )
    assert cells > 2000
