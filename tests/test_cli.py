import itertools
import json

import pytest

from spinaltri.cli import main
from spinaltri.linalg import QVector
from spinaltri.polytope import make_polytope
from spinaltri import io as sio


@pytest.fixture
def cube_file(tmp_path):
    p = make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=3)])
    path = tmp_path / "cube.json"
    sio.save_polytope(p, str(path))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    p = make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=2)])
    path = tmp_path / "square.json"
    sio.save_polytope(p, str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_everest_volume_formula(capsys):
    code, out = run(capsys, "everest", "volume", "2", "2", "--method", "formula")
    assert code == 0
    assert json.loads(out)["volume"] == "15/4"


def test_everest_volume_pretty(capsys):
    code, out = run(capsys, "everest", "volume", "2", "2", "--pretty")
    assert code == 0
    assert out.strip() == "15/4"


def test_everest_volume_hull_matches(capsys):
    code, out = run(capsys, "everest", "volume", "1", "2", "--method", "hull")
    assert json.loads(out)["volume"] == "3"


def test_everest_verify(capsys):
    code, out = run(capsys, "everest", "verify", "1", "2", "--lifting")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(doc["checks"].values())


def test_spine_check_true(capsys, cube_file):
    code, out = run(capsys, "spine-check", cube_file, "--set", "0,7")
    assert code == 0
    assert json.loads(out)["is_spine"] is True


def test_spine_check_false_pretty(capsys, cube_file):
    code, out = run(capsys, "spine-check", cube_file, "--set", "0,1", "--pretty")
    assert code == 0
    assert out.strip() == "false"


def test_spine_enum(capsys, square_file):
    code, out = run(capsys, "spine-enum", square_file)
    assert json.loads(out)["spines"] == [[0, 3], [1, 2]]


def test_facets(capsys, square_file):
    code, out = run(capsys, "facets", square_file)
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert len(doc["facets"]) == 4


def test_triangulate_spinal(capsys, cube_file):
    code, out = run(capsys, "triangulate", cube_file, "--spinal", "--set", "0,7")
    doc = json.loads(out)
    assert len(doc["simplices"]) == 6
    assert all({0, 7} <= set(c) for c in doc["simplices"])


def test_triangulate_with_order(capsys, square_file):
    code, out = run(capsys, "triangulate", square_file, "--order", "3,0,1,2")
    doc = json.loads(out)
    assert len(doc["simplices"]) == 2
    assert all(3 in c for c in doc["simplices"])


def test_volume(capsys, cube_file):
    code, out = run(capsys, "volume", cube_file)
    doc = json.loads(out)
    assert doc["volume"] == "1"
    assert doc["n_simplices"] == 6


def test_verify_lifting(capsys, cube_file):
    code, out = run(capsys, "verify-lifting", cube_file, "--set", "0,7")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["lhs"] == "9" and doc["rhs"] == "9"


def test_fold_then_lift_roundtrip(capsys, cube_file, tmp_path):
    code, out = run(capsys, "fold", cube_file, "--set", "0,7")
    assert code == 0
    folded = json.loads(out)
    assert len(folded["simplices"]) == 6
    star_path = tmp_path / "star.json"
    star_path.write_text(json.dumps({"simplices": folded["simplices"]}))
    code, out = run(capsys, "lift", cube_file, "--set", "0,7", "--star", str(star_path))
    assert code == 0
    lifted = json.loads(out)
    assert len(lifted["simplices"]) == 6
    assert all({0, 7} <= set(c) for c in lifted["simplices"])


def test_lift_rejects_fractional_index(capsys, cube_file, tmp_path):
    _, out = run(capsys, "fold", cube_file, "--set", "0,7")
    simplices = json.loads(out)["simplices"]
    star_path = tmp_path / "star.json"
    star_path.write_text(
        json.dumps({"simplices": simplices}).replace("1", "1.5", 1)
    )
    code = main(["lift", cube_file, "--set", "0,7", "--star", str(star_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda cells: [[0, 1, 99]] + cells[1:], "cell [0, 1, 99]: index 99 is outside 0..6"),
        # -1 would otherwise alias the last shadow point, 6, and lift cleanly.
        (
            lambda cells: [[-1 if i == 6 else i for i in c] for c in cells],
            "cell [0, 2, -1]: index -1 is outside 0..6",
        ),
        (lambda cells: cells + [cells[0][::-1]], "cell [3, 1, 0] is given twice"),
        (
            lambda cells: cells[1:],
            "lift is not a triangulation of the polytope: "
            "cell volumes sum to 5/6, polytope volume is 1",
        ),
        # JSON true and "1" would otherwise be read as the index 1.
        (lambda cells: [[0, True, 3]] + cells[1:], "index true is not an integer"),
        (lambda cells: [[0, "1", 3]] + cells[1:], 'index "1" is not an integer'),
    ],
    ids=[
        "out-of-range-index",
        "negative-index",
        "repeated-cell",
        "dropped-cell",
        "boolean-index",
        "string-index",
    ],
)
def test_lift_rejects_bad_star(capsys, cube_file, tmp_path, edit, message):
    _, out = run(capsys, "fold", cube_file, "--set", "0,7")
    star_path = tmp_path / "star.json"
    star_path.write_text(json.dumps({"simplices": edit(json.loads(out)["simplices"])}))
    code = main(["lift", cube_file, "--set", "0,7", "--star", str(star_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "vertices",
    ["5", '[5, ["1", "0"], ["0", "1"]]', '["00", "10", "01"]', '{"00": 1, "10": 2, "01": 3}'],
    ids=["number", "number-row", "string-rows", "mapping"],
)
def test_vertices_that_are_not_rows_are_rejected(capsys, tmp_path, vertices):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"ambient_dim": 2, "vertices": {vertices}}}')
    code = main(["facets", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spine-check", "{cube}", "--set", "0,3,3"],
        ["fold", "{cube}", "--set", "0,3,3"],
        ["verify-lifting", "{cube}", "--set", "0,3,3"],
        ["triangulate", "{cube}", "--spinal", "--set", "0,3,3"],
        ["lift", "{cube}", "--set", "0,3,3", "--star", "unread.json"],
    ],
    ids=["spine-check", "fold", "verify-lifting", "triangulate-spinal", "lift"],
)
def test_repeated_spine_index_is_rejected(capsys, cube_file, argv):
    # The set {0, 3} would otherwise be used in its place.
    code = main([a.format(cube=cube_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: index 3 is repeated in --set '0,3,3'\n"


def test_birkhoff_context(capsys):
    code, out = run(capsys, "birkhoff", "context", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["det_btb"] == "81"
    assert doc["identities_ok"] is True


def test_birkhoff_project(capsys):
    code, out = run(capsys, "birkhoff", "project", "3")
    doc = json.loads(out)
    assert len(doc["vertices"]) == 3


def test_birkhoff_verify_with_volume(capsys):
    code, out = run(capsys, "birkhoff", "verify", "3", "--volume")
    assert code == 0
    doc = json.loads(out)
    assert doc["volume_relation_ok"] is True
    assert doc["vol_birkhoff"] == "9/8"


def test_birkhoff_n4_volume_relation(capsys):
    code, out = run(capsys, "birkhoff", "verify", "4", "--volume")
    assert code == 0
    doc = json.loads(out)
    assert doc["volume_relation_ok"] is True
    assert doc["vol_truncated"] == "11/11340"


def test_domain_error_exit_code(capsys, cube_file):
    code = main(["spine-check", cube_file, "--set", "0,99"])
    assert code == 1


def test_missing_file_is_domain_error(capsys):
    code = main(["volume", "/nonexistent/poly.json"])
    assert code == 1


def test_zero_denominator_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient_dim": 1, "vertices": [["0"], ["1/0"]]}')
    code = main(["facets", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["everest", "volume", "2"])
    assert exc.value.code == 2


def test_machine_output_deterministic(capsys, cube_file):
    _, out1 = run(capsys, "facets", cube_file)
    _, out2 = run(capsys, "facets", cube_file)
    assert out1 == out2


def test_selftest_single_criterion(capsys):
    code, out = run(capsys, "selftest", "--only", "everest-vertex-counts")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("only", ["99", "x"])
def test_selftest_unknown_criterion(capsys, only):
    code = main(["selftest", "--only", only])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: unknown criterion {only!r}; the criteria are ")
    assert "1 everest-volume, 2 everest-vertex-counts," in captured.err
    assert captured.err.endswith(", 10 validator-suite\n")
