"""Spine detection and enumeration.

A spine of a polytope is a subset U of its vertices such that every facet
contains at least |U| - 1 points of U.  Equivalently (and checked here as a
cross-validation), the simplices spanned by U together with further vertices
cover the whole polytope, so U supports a triangulation whose maximal cells
all contain U.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .linalg import gram_sq_volume
from .polytope import DegeneratePolytope, Facet, Polytope, PolytopeError
from .polytope import facets_of_face, vertex_mask


class SpineError(ValueError):
    pass


@dataclass(frozen=True)
class Spine:
    """A validated spine: vertex indices into the owning polytope."""

    polytope: Polytope
    indices: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.indices)

    def points(self):
        return [self.polytope.vertices[i] for i in self.indices]


def spine(p: Polytope, indices: Iterable[int]) -> Spine:
    """Validate the facet criterion and affine independence, then build."""
    idx = tuple(sorted(set(indices)))
    if not is_spine(p, idx):
        raise SpineError(f"{idx} is not a spine: some facet misses too many points")
    pts = [p.vertices[i] for i in idx]
    if gram_sq_volume(pts, len(idx) - 1) == 0:
        raise SpineError(f"{idx} is affinely dependent")  # cannot happen for true spines
    return Spine(p, idx)


def is_spine(p: Polytope, indices: Iterable[int]) -> bool:
    """Facet criterion: every facet contains at least |U| - 1 points of U."""
    idx = set(indices)
    if not idx:
        raise SpineError("a spine must be nonempty")
    if not idx <= set(range(p.n_vertices)):
        raise SpineError("spine indices out of range")
    if p.dim == 0:
        return True
    need = len(idx) - 1
    for f in p.facets():
        if len(idx & set(f.incident)) < need:
            return False
    return True


def is_spine_geometric(p: Polytope, indices: Iterable[int]) -> bool:
    """Covering criterion: the U-spanned full simplices exhaust the polytope.

    Realized through a pulling triangulation with U pulled first: the cells
    of that triangulation that contain U lie in the U-span, so U covers the
    polytope iff their volumes already add up to the whole volume.
    """
    from .triangulation import pulling_triangulation
    from .volume import triangulation_relative_volume, polytope_relative_volume

    idx = tuple(sorted(set(indices)))
    if not idx:
        raise SpineError("a spine must be nonempty")
    if p.dim == 0:
        raise DegeneratePolytope("degenerate polytope")
    order = list(idx) + [i for i in range(p.n_vertices) if i not in idx]
    t = pulling_triangulation(p, order)
    spinal = [s for s in t.simplices if set(idx) <= set(s)]
    covered = triangulation_relative_volume(p, spinal)
    return covered == polytope_relative_volume(p)


def face_spine(s: Spine, face: Facet) -> tuple[int, ...]:
    """Restriction of a spine to a facet; validated on the facet's ridges."""
    p = s.polytope
    sub = tuple(sorted(set(s.indices) & set(face.incident)))
    if len(sub) < s.n - 1:
        raise SpineError("facet misses too many spine points")  # cannot happen
    if not sub:
        raise SpineError("a spine must be nonempty")
    # The facet criterion on the face, whose facets are its ridges in P.
    sub_mask = vertex_mask(sub)
    facet_masks = [vertex_mask(f.incident) for f in p.facets()]
    for ridge in facets_of_face(vertex_mask(face.incident), facet_masks):
        if (ridge & sub_mask).bit_count() < len(sub) - 1:
            raise SpineError("restriction is not a spine of the face")  # cannot happen
    return sub


def enumerate_spines(
    p: Polytope, min_size: int, *, max_vertices: int = 20
) -> list[tuple[int, ...]]:
    """All spines of size >= min_size, in lexicographic order of index tuples."""
    if p.n_vertices > max_vertices:
        raise PolytopeError(
            f"{p.n_vertices} vertices exceed the enumeration cap {max_vertices}"
        )
    if min_size < 1:
        raise SpineError("min_size must be at least 1")
    out = []
    for size in range(min_size, p.n_vertices + 1):
        for combo in itertools.combinations(range(p.n_vertices), size):
            if is_spine(p, combo):
                out.append(combo)
    out.sort()
    return out
