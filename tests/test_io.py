import itertools
import json
import re
from fractions import Fraction

import pytest

from polytope_writer import polytope_to_doc, save_polytope
from spinaltri.linalg import QVector
from spinaltri.polytope import make_polytope
from spinaltri.triangulation import pulling_triangulation
from spinaltri import io as sio


def test_polytope_roundtrip(tmp_path):
    pts = [QVector([Fraction(1, 2), Fraction(-3, 4)]), QVector([1, 1]), QVector([0, 0])]
    p = make_polytope(pts)
    path = tmp_path / "p.json"
    save_polytope(p, str(path))
    q = sio.load_polytope(str(path))
    assert q.vertices == p.vertices
    assert q.ambient_dim == 2


def test_vertex_order_preserved(tmp_path):
    pts = [QVector(b) for b in itertools.product((0, 1), repeat=2)]
    p = make_polytope(list(reversed(pts)))
    path = tmp_path / "p.json"
    save_polytope(p, str(path))
    assert sio.load_polytope(str(path)).vertices == tuple(reversed(pts))


def test_rational_strings():
    doc = polytope_to_doc(make_polytope([QVector([Fraction(-1, 3)]), QVector([2])]))
    assert doc["vertices"] == [["-1/3"], ["2"]]


def test_malformed_document():
    with pytest.raises(sio.DocumentError):
        sio.polytope_from_doc({"vertices": [["1"]]})


def test_dimension_mismatch():
    with pytest.raises(sio.DocumentError):
        sio.polytope_from_doc({"ambient_dim": 2, "vertices": [["1"]]})


@pytest.mark.parametrize("dim", [True, "1", 1.0], ids=["boolean", "string", "float"])
def test_ambient_dim_must_be_a_json_integer(dim):
    with pytest.raises(sio.DocumentError, match="ambient_dim .* is not an integer"):
        sio.polytope_from_doc({"ambient_dim": dim, "vertices": [["0"], ["1"]]})


@pytest.mark.parametrize(
    "vertices,message",
    [
        (5, "vertices is 5, not a list of coordinate lists"),
        ([5, ["1", "0"], ["0", "1"]], "vertex 0 is 5, not a list of coordinates"),
        # Strings would otherwise be split into characters: the triangle
        # (0,0), (1,0), (0,1).
        (["00", "10", "01"], 'vertex 0 is "00", not a list of coordinates'),
        # A mapping would otherwise be read by its keys.
        ({"00": 1, "10": 2, "01": 3}, 'vertices is {"00": 1, "10": 2, "01": 3}, not a list'),
    ],
    ids=["number", "number-row", "string-rows", "mapping"],
)
def test_vertices_must_be_a_list_of_lists(vertices, message):
    with pytest.raises(sio.DocumentError, match=re.escape(message)):
        sio.polytope_from_doc({"ambient_dim": 2, "vertices": vertices})


def test_triangulation_doc_is_canonical():
    p = make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=2)])
    t = pulling_triangulation(p)
    doc = sio.triangulation_to_doc(t)
    assert doc["simplices"] == sorted(doc["simplices"])
    assert json.dumps(doc)  # serializable as-is


def test_json_numbers_parse_exactly(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"ambient_dim": 1, "vertices": [[0], [0.12345678901234567890123]]}'
    )
    p = sio.load_polytope(str(path))
    assert p.vertices[1][0] == Fraction("0.12345678901234567890123")
    assert polytope_to_doc(p)["vertices"] == [
        ["0"],
        ["12345678901234567890123/100000000000000000000000"],
    ]


@pytest.mark.parametrize(
    "doc,message",
    [
        ("hello", 'polytope document is "hello", not an object'),
        (None, "polytope document is null, not an object"),
        ([["0"], ["1"]], 'polytope document is [["0"], ["1"]], not an object'),
        ({"vertices": [["0"], ["1"]]}, 'polytope document has no "ambient_dim"'),
        ({"ambient_dim": 1}, 'polytope document has no "vertices"'),
        (
            {"ambient_dim": 2, "vertices": [["0", "0"], [None, "1"]]},
            "vertex 1 coordinate 0 is null, not a rational",
        ),
        (
            {"ambient_dim": 2, "vertices": [["0", "0"], ["1", True]]},
            "vertex 1 coordinate 1 is true, not a rational",
        ),
        (
            {"ambient_dim": 2, "vertices": [["0", ["1"]], ["1", "1"]]},
            'vertex 0 coordinate 1 is ["1"], not a rational',
        ),
        (
            {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "1e400000"]]},
            "vertex 1 coordinate 1: decimal exponent is past the limit of 4300 "
            "in absolute value",
        ),
        (
            {"ambient_dim": 2, "vertices": [["0", "x"], ["1", "1"]]},
            "vertex 0 coordinate 1: Invalid literal for Fraction: 'x'",
        ),
        (
            {"ambient_dim": 1, "vertices": [["1/0"], ["1"]]},
            "vertex 0 coordinate 0: zero denominator in '1/0'",
        ),
        # Every coordinate's type is checked before any token is read.
        (
            {"ambient_dim": 2, "vertices": [["1/0", "0"], [None, "1"]]},
            "vertex 1 coordinate 0 is null, not a rational",
        ),
        # A Python float is refused, not read as the decimal str() shows.
        (
            {"ambient_dim": 1, "vertices": [[0.1], [1]]},
            "vertex 0 coordinate 0 is 0.1, not a rational",
        ),
    ],
    ids=["string", "null", "list", "no-ambient-dim", "no-vertices", "null-coordinate",
         "boolean-coordinate", "list-coordinate", "token-past-the-bound", "bad-literal",
         "zero-denominator", "type-before-token", "float-coordinate"],
)
def test_malformed_polytope_documents_are_named(doc, message):
    with pytest.raises(sio.DocumentError) as exc:
        sio.polytope_from_doc(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "doc,message",
    [
        ("hello", 'triangulation document is "hello", not an object'),
        (None, "triangulation document is null, not an object"),
        ({"dim": 2}, 'triangulation document has no "simplices"'),
        ({"simplices": 5}, "simplices is 5, not a list of cells"),
        ({"simplices": [[0, 1, 2], "012"]}, 'cell 1 is "012", not a list of indices'),
    ],
    ids=["string", "null", "no-simplices", "number-simplices", "string-cell"],
)
def test_malformed_triangulation_documents_are_named(doc, message):
    with pytest.raises(sio.DocumentError) as exc:
        sio.simplices_from_doc(doc)
    assert str(exc.value) == message


def test_star_doc_refuses_a_float_shadow_point():
    points = [QVector([0, 0]), QVector([Fraction(1, 10), 1])]
    with pytest.raises(sio.DocumentError) as exc:
        sio.check_star_doc({"shadow_points": [[0, 0], [0.1, 1]]}, 2, points)
    assert str(exc.value) == "shadow point 1 coordinate 0 is 0.1, not a rational"
    sio.check_star_doc({"shadow_points": [[0, 0], ["0.1", 1]]}, 2, points)
