"""JSON interchange for polytopes and triangulations.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so
nothing is ever rounded through a float.  Vertex order in a polytope file is
meaningful: it is the default total order used by the pulling constructions.
"""

from __future__ import annotations

import json
from typing import Any

from .linalg import QVector, format_rational, parse_rational
from .polytope import Polytope, make_polytope
from .triangulation import Triangulation


class DocumentError(ValueError):
    pass


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; booleans, strings and fractions are rejected."""
    if type(value) is not int:
        raise DocumentError(f"{what} {json.dumps(value)} is not an integer")
    return value


def vector_to_strings(v: QVector) -> list[str]:
    return [format_rational(x) for x in v]


def vector_from_strings(raw) -> QVector:
    return QVector([parse_rational(str(x)) for x in raw])


def polytope_to_doc(p: Polytope) -> dict[str, Any]:
    return {
        "ambient_dim": p.ambient_dim,
        "vertices": [vector_to_strings(v) for v in p.vertices],
    }


def polytope_from_doc(doc: dict[str, Any]) -> Polytope:
    try:
        dim = _json_int(doc["ambient_dim"], "ambient_dim")
        raw = doc["vertices"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed polytope document: {exc}") from None
    if type(raw) is not list:
        raise DocumentError(f"vertices is {json.dumps(raw)}, not a list of coordinate lists")
    for i, row in enumerate(raw):
        if type(row) is not list:
            raise DocumentError(f"vertex {i} is {json.dumps(row)}, not a list of coordinates")
    vertices = [vector_from_strings(row) for row in raw]
    if any(len(v) != dim for v in vertices):
        raise DocumentError("vertex dimension disagrees with ambient_dim")
    return make_polytope(vertices)


def load_polytope(path: str) -> Polytope:
    with open(path) as fh:
        return polytope_from_doc(json.load(fh, parse_float=str))


def save_polytope(p: Polytope, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(polytope_to_doc(p), fh, indent=1)
        fh.write("\n")


def triangulation_to_doc(t: Triangulation) -> dict[str, Any]:
    return {
        "dim": t.dim,
        "simplices": [list(c) for c in t.simplices],
    }


def simplices_from_doc(doc: dict[str, Any], n_points: int) -> list[tuple[int, ...]]:
    """Cells over a table of n_points points: every index in range, no cell
    given twice."""
    try:
        cells = [tuple(_json_int(i, "index") for i in c) for c in doc["simplices"]]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed triangulation document: {exc}") from None
    seen = set()
    for c in cells:
        bad = [i for i in c if not 0 <= i < n_points]
        if bad:
            raise DocumentError(f"cell {list(c)}: index {bad[0]} is outside 0..{n_points - 1}")
        if frozenset(c) in seen:
            raise DocumentError(f"cell {list(c)} is given twice")
        seen.add(frozenset(c))
    return cells
