"""Spine detection and enumeration.

A spine of a polytope is a subset U of its vertices such that every facet
contains at least |U| - 1 points of U, that is, no facet misses two points
of U.  The condition is pairwise, so the spines are exactly the nonempty
independent sets of the conflict graph on the vertices in which i ~ j iff
some facet misses both; both tests here work on vertex bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .polytope import Polytope, PolytopeError, vertex_mask

if TYPE_CHECKING:
    from .triangulation import ShadowMap


class SpineError(ValueError):
    pass


@dataclass(frozen=True)
class Spine:
    """A validated spine: vertex indices into the owning polytope.

    ``_shadow`` is the spine's `ShadowMap`, set by `triangulation.shadow` on
    its first call; it lives and dies with this object.
    """

    polytope: Polytope
    indices: tuple[int, ...]
    _shadow: ShadowMap | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def n(self) -> int:
        return len(self.indices)

    def points(self):
        return [self.polytope.vertices[i] for i in self.indices]


def spine(p: Polytope, indices: Iterable[int]) -> Spine:
    """Validate the facet criterion, then build.  A spine lies in every cell
    of a spinal triangulation, so it is affinely independent."""
    idx = tuple(sorted(set(indices)))
    if not is_spine(p, idx):
        raise SpineError(f"{idx} is not a spine: some facet misses too many points")
    return Spine(p, idx)


def is_spine(p: Polytope, indices: Iterable[int]) -> bool:
    """Facet criterion: every facet misses at most one point of U."""
    idx = set(indices)
    if not idx:
        raise SpineError("a spine must be nonempty")
    if not idx <= set(range(p.n_vertices)):
        raise SpineError("spine indices out of range")
    u = vertex_mask(idx)
    for f in p.incidence_masks():
        missed = u & ~f
        if missed & (missed - 1):
            return False
    return True


def enumerate_spines(
    p: Polytope, min_size: int, *, max_vertices: int = 20
) -> list[tuple[int, ...]]:
    """All spines of size >= min_size, in lexicographic order of index tuples.

    The independent sets of the conflict graph are grown depth first in
    increasing index order, which is that order already, so the work grows
    with the number of spines, not with the 2^n vertex subsets.
    """
    if p.n_vertices > max_vertices:
        raise PolytopeError(
            f"{p.n_vertices} vertices exceed the enumeration cap {max_vertices}"
        )
    if min_size < 1:
        raise SpineError("min_size must be at least 1")
    n = p.n_vertices
    full = (1 << n) - 1
    conflict = [0] * n
    for f in p.incidence_masks():
        missed = full & ~f
        for i in range(n):
            if missed >> i & 1:
                conflict[i] |= missed
    out: list[tuple[int, ...]] = []

    def grow(u: tuple[int, ...], allowed: int) -> None:
        if len(u) >= min_size:
            out.append(u)
        for j in range(u[-1] + 1 if u else 0, n):
            if allowed >> j & 1:
                grow(u + (j,), allowed & ~conflict[j])

    grow((), full)
    return out
