"""JSON interchange for polytopes and triangulations.

Rationals travel as strings ("p/q", or "p" when the denominator is 1) so
nothing is ever rounded through a float.  Vertex order in a polytope file is
meaningful: it is the default total order used by the pulling constructions.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from .linalg import QVector, format_rational, parse_rational
from .polytope import Polytope, _vertex_polytope
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


def _json_object(doc: Any, what: str, keys: tuple[str, ...]) -> list[Any]:
    """The values of keys in a JSON object, in order."""
    if type(doc) is not dict:
        raise DocumentError(f"{what} document is {json.dumps(doc)}, not an object")
    for key in keys:
        if key not in doc:
            raise DocumentError(f'{what} document has no "{key}"')
    return [doc[key] for key in keys]


def polytope_from_doc(doc: dict[str, Any]) -> Polytope:
    dim, raw = _json_object(doc, "polytope", ("ambient_dim", "vertices"))
    dim = _json_int(dim, "ambient_dim")
    vertices = _rational_rows(raw, "vertices", "vertex")
    if any(len(v) != dim for v in vertices):
        raise DocumentError("vertex dimension disagrees with ambient_dim")
    return _vertex_polytope(vertices)


def _rational_rows(raw: Any, name: str, item: str) -> list[QVector]:
    """A JSON list of coordinate lists as QVectors.  Errors call the list
    ``name`` and a row ``item``."""
    if type(raw) is not list:
        raise DocumentError(f"{name} is {json.dumps(raw)}, not a list of coordinate lists")
    for i, row in enumerate(raw):
        if type(row) is not list:
            raise DocumentError(f"{item} {i} is {json.dumps(row)}, not a list of coordinates")
        for j, x in enumerate(row):
            # JSON strings and integers only: load_json keeps floats as
            # strings, so they are read exactly, and a float is never rounded.
            if type(x) not in (str, int):
                raise DocumentError(
                    f"{item} {i} coordinate {j} is {json.dumps(x)}, not a rational"
                )
    rows = []
    for i, row in enumerate(raw):
        coords = []
        for j, x in enumerate(row):
            try:
                coords.append(parse_rational(str(x)))
            except ValueError as exc:
                raise DocumentError(f"{item} {i} coordinate {j}: {exc}") from None
        rows.append(QVector(coords))
    return rows


def _json_int_token(token: str) -> int:
    """A JSON integer literal; one past int()'s digit limit is named here,
    since the interpreter's own message points at a setting the command
    line cannot reach."""
    try:
        return int(token)
    except ValueError:
        digits = len(token.lstrip("-"))
        raise DocumentError(f"integer of {digits} digits is too long to read") from None


def load_json(path: str, what: str) -> Any:
    """The JSON document in the file at path, floats kept as strings so they
    are read exactly.  A document nested too deeply for the decoder is one
    DocumentError, like an integer too long to read."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=str, parse_int=_json_int_token)
        except RecursionError:
            raise DocumentError(f"{what} document is nested too deeply to read") from None


def load_polytope(path: str) -> Polytope:
    return polytope_from_doc(load_json(path, "polytope"))


def triangulation_to_doc(t: Triangulation) -> dict[str, Any]:
    return {
        "dim": t.dim,
        "simplices": [list(c) for c in t.simplices],
    }


def simplices_from_doc(doc: dict[str, Any]) -> list[tuple[int, ...]]:
    """The cells of a triangulation document as integer tuples, in file
    order.  Only their JSON shape is checked here: `lift` refuses an index
    outside the point table and a repeated cell."""
    (raw,) = _json_object(doc, "triangulation", ("simplices",))
    if type(raw) is not list:
        raise DocumentError(f"simplices is {json.dumps(raw)}, not a list of cells")
    for k, c in enumerate(raw):
        if type(c) is not list:
            raise DocumentError(f"cell {k} is {json.dumps(c)}, not a list of indices")
    return [tuple(_json_int(i, "index") for i in c) for c in raw]


def check_star_doc(doc: dict[str, Any], dim: int, points: Sequence[QVector]) -> None:
    """A star file's optional "dim" and "shadow_points", as ``fold`` writes
    them, must be the shadow's dimension and its point table."""
    if "dim" in doc and _json_int(doc["dim"], "dim") != dim:
        raise DocumentError(f"dim {doc['dim']} is not the shadow's dimension {dim}")
    if "shadow_points" not in doc:
        return
    rows = _rational_rows(doc["shadow_points"], "shadow_points", "shadow point")
    if rows != list(points):
        raise DocumentError("shadow_points are not the shadow points of this spine")
