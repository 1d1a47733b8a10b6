import itertools
import json
import re
from fractions import Fraction

import pytest

from spinaltri.linalg import QVector
from spinaltri.polytope import make_polytope
from spinaltri.triangulation import pulling_triangulation
from spinaltri import io as sio


def test_polytope_roundtrip(tmp_path):
    pts = [QVector([Fraction(1, 2), Fraction(-3, 4)]), QVector([1, 1]), QVector([0, 0])]
    p = make_polytope(pts)
    path = tmp_path / "p.json"
    sio.save_polytope(p, str(path))
    q = sio.load_polytope(str(path))
    assert q.vertices == p.vertices
    assert q.ambient_dim == 2


def test_vertex_order_preserved(tmp_path):
    pts = [QVector(b) for b in itertools.product((0, 1), repeat=2)]
    p = make_polytope(list(reversed(pts)))
    path = tmp_path / "p.json"
    sio.save_polytope(p, str(path))
    assert sio.load_polytope(str(path)).vertices == tuple(reversed(pts))


def test_rational_strings():
    doc = sio.polytope_to_doc(make_polytope([QVector([Fraction(-1, 3)]), QVector([2])]))
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
    assert sio.polytope_to_doc(p)["vertices"] == [
        ["0"],
        ["12345678901234567890123/100000000000000000000000"],
    ]
