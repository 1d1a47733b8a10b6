import itertools
import json
from fractions import Fraction

import pytest

from polytope_writer import save_polytope
from spinaltri import cli
from spinaltri.cli import main
from spinaltri.linalg import QVector
from spinaltri.polytope import make_polytope
from test_golden_cli import GOLDEN


@pytest.fixture
def cube_file(tmp_path):
    p = make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=3)])
    path = tmp_path / "cube.json"
    save_polytope(p, str(path))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    p = make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=2)])
    path = tmp_path / "square.json"
    save_polytope(p, str(path))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["everest", "vertices", "12", "12"],
        ["everest", "verify", "12", "12"],
        ["everest", "volume", "12", "1", "--method", "lifting"],
        ["everest", "volume", "1", "4096", "--method", "lifting"],
    ],
)
def test_everest_over_the_pattern_cap_fails_in_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: the vertex families of E(")


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


def test_spine_enum_pretty_says_when_no_spine_is_that_large(capsys, square_file):
    code, out = run(capsys, "spine-enum", square_file, "--min-size", "3", "--pretty")
    assert code == 0
    assert out == "no spine has 3 or more points\n"
    code, out = run(capsys, "spine-enum", square_file, "--min-size", "3")
    assert json.loads(out)["spines"] == []


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
        # Not a repeat of [0, 1, 3]: lift's validation refuses its five vertices.
        (
            lambda cells: cells + [[0, 1, 3, 3]],
            "lift is not a triangulation of the polytope: "
            "cell (0, 1, 3, 3, 7) does not have 4 distinct vertices",
        ),
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
        "repeated-index",
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


def _unreduced(doc):
    """fold's document with every shadow coordinate p/q written as 2p/2q."""
    rows = [[Fraction(x) for x in row] for row in doc["shadow_points"]]
    points = [[f"{2 * x.numerator}/{2 * x.denominator}" for x in row] for row in rows]
    return {**doc, "shadow_points": points}


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc, lambda doc: {**doc, "dim": 2}, _unreduced],
    ids=["as-folded", "dim", "unreduced-rationals"],
)
def test_lift_reads_folds_whole_document(capsys, cube_file, tmp_path, edit):
    _, out = run(capsys, "fold", cube_file, "--set", "0,7")
    star_path = tmp_path / "star.json"
    star_path.write_text(json.dumps(edit(json.loads(out))))
    code, out = run(capsys, "lift", cube_file, "--set", "0,7", "--star", str(star_path))
    assert code == 0
    assert len(json.loads(out)["simplices"]) == 6


SHADOW_MISMATCH = "shadow_points are not the shadow points of this spine"


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: {**doc, "dim": 9}, "dim 9 is not the shadow's dimension 2"),
        (lambda doc: {**doc, "dim": 3}, "dim 3 is not the shadow's dimension 2"),
        (lambda doc: {**doc, "dim": "x"}, 'dim "x" is not an integer'),
        (lambda doc: {**doc, "dim": True}, "dim true is not an integer"),
        (lambda doc: {**doc, "dim": None}, "dim null is not an integer"),
        (
            lambda doc: {**doc, "shadow_points": 5},
            "shadow_points is 5, not a list of coordinate lists",
        ),
        (
            lambda doc: {**doc, "shadow_points": doc["shadow_points"][:1] + ["000"]},
            'shadow point 1 is "000", not a list of coordinates',
        ),
        (
            lambda doc: {**doc, "shadow_points": [[None, "0", "0"]]},
            "shadow point 0 coordinate 0 is null, not a rational",
        ),
        (
            lambda doc: {**doc, "shadow_points": [["1/0", "0", "0"]]},
            "shadow point 0 coordinate 0: zero denominator in '1/0'",
        ),
        (lambda doc: {**doc, "shadow_points": doc["shadow_points"][:-1]}, SHADOW_MISMATCH),
        (lambda doc: {**doc, "shadow_points": doc["shadow_points"][::-1]}, SHADOW_MISMATCH),
        (lambda doc: {**doc, "shadow_points": []}, SHADOW_MISMATCH),
        # "dim" and "shadow_points" are read before lift checks the cells.
        (
            lambda doc: {**doc, "dim": 3, "simplices": [[0, 1, 99]] + doc["simplices"][1:]},
            "dim 3 is not the shadow's dimension 2",
        ),
        (
            lambda doc: {
                **doc,
                "shadow_points": doc["shadow_points"][::-1],
                "simplices": doc["simplices"] + [doc["simplices"][0][::-1]],
            },
            SHADOW_MISMATCH,
        ),
    ],
    ids=[
        "dim-9",
        "dim-of-the-polytope",
        "string-dim",
        "boolean-dim",
        "null-dim",
        "number-points",
        "string-point",
        "null-coordinate",
        "zero-denominator",
        "dropped-point",
        "reversed-points",
        "no-points",
        "range-and-dim",
        "repeat-and-shadow-points",
    ],
)
def test_lift_checks_star_dim_and_shadow_points(capsys, cube_file, tmp_path, edit, message):
    _, out = run(capsys, "fold", cube_file, "--set", "0,7")
    star_path = tmp_path / "star.json"
    star_path.write_text(json.dumps(edit(json.loads(out))))
    code = main(["lift", cube_file, "--set", "0,7", "--star", str(star_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_lift_refuses_another_spines_fold(capsys, cube_file, tmp_path):
    # Without the shadow points this star fails only in validation.
    _, out = run(capsys, "fold", cube_file, "--set", "0,7")
    star_path = tmp_path / "star.json"
    star_path.write_text(out)
    code = main(["lift", cube_file, "--set", "1,6", "--star", str(star_path)])
    assert (code, capsys.readouterr().err) == (1, f"error: {SHADOW_MISMATCH}\n")
    star_path.write_text(json.dumps({"simplices": json.loads(out)["simplices"]}))
    code = main(["lift", cube_file, "--set", "1,6", "--star", str(star_path)])
    assert code == 1
    assert "lie on the same side of it" in capsys.readouterr().err


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
    "text,message",
    [
        ('"hello"', 'polytope document is "hello", not an object'),
        ("null", "polytope document is null, not an object"),
        ('{"vertices": [["0"], ["1"]]}', 'polytope document has no "ambient_dim"'),
        (
            '{"ambient_dim": 2, "vertices": [["0", "0"], [null, "1"]]}',
            "vertex 1 coordinate 0 is null, not a rational",
        ),
    ],
    ids=["string", "null", "no-ambient-dim", "null-coordinate"],
)
def test_malformed_polytope_document_is_named(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["facets", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('"hello"', 'triangulation document is "hello", not an object'),
        ("null", "triangulation document is null, not an object"),
        ('{"dim": 2}', 'triangulation document has no "simplices"'),
        ('{"simplices": 5}', "simplices is 5, not a list of cells"),
        ('{"simplices": [[0, 1, 2], "012"]}', 'cell 1 is "012", not a list of indices'),
    ],
    ids=["string", "null", "no-simplices", "number-simplices", "string-cell"],
)
def test_malformed_star_document_is_named(capsys, cube_file, tmp_path, text, message):
    star_path = tmp_path / "star.json"
    star_path.write_text(text)
    code = main(["lift", cube_file, "--set", "0,7", "--star", str(star_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DEEP = "[" * 100_000
LONG_INT = "7" * 5000


@pytest.mark.parametrize(
    "verb,which,text,message",
    [
        ("facets", "polytope", DEEP, "polytope document is nested too deeply to read"),
        ("lift", "polytope", DEEP, "polytope document is nested too deeply to read"),
        ("lift", "star", DEEP, "triangulation document is nested too deeply to read"),
        (
            "facets",
            "polytope",
            f'{{"ambient_dim": 2, "vertices": [[{LONG_INT}, 0], [0, 1]]}}',
            "integer of 5000 digits is too long to read",
        ),
        (
            "lift",
            "polytope",
            f'{{"ambient_dim": 3, "vertices": [[-{LONG_INT}, 0, 0]]}}',
            "integer of 5000 digits is too long to read",
        ),
        (
            "lift",
            "star",
            f'{{"simplices": [[0, 1, {LONG_INT}]]}}',
            "integer of 5000 digits is too long to read",
        ),
    ],
    ids=["facets-deep", "lift-deep", "star-deep", "facets-long", "lift-long", "star-long"],
)
def test_unreadable_json_is_one_error_line(
    capsys, cube_file, tmp_path, verb, which, text, message
):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    polytope = str(bad) if which == "polytope" else cube_file
    argv = [verb, polytope]
    if verb == "lift":
        argv += ["--set", "0,7", "--star", str(bad) if which == "star" else cube_file]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "token,message",
    [
        ('"1e400000"', "decimal exponent is past the limit of 4300 in absolute value"),
        ('"1e-400000"', "decimal exponent is past the limit of 4300 in absolute value"),
        ('"1e4000000000"', "decimal exponent is past the limit of 4300 in absolute value"),
        ("1e400000", "decimal exponent is past the limit of 4300 in absolute value"),
        (f'"{"7" * 5000}"', "numerator of 5000 digits is past the 4300-digit limit"),
        (f'"1/{"7" * 5000}"', "denominator of 5000 digits is past the 4300-digit limit"),
    ],
    ids=["exp", "neg-exp", "vast-exp", "json-float-exp", "long-num", "long-den"],
)
def test_token_past_the_bound_is_one_error_line(capsys, tmp_path, token, message):
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"ambient_dim": 2, "vertices": [[{token}, "0"], ["0", "1"]]}}')
    code = main(["facets", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: vertex 0 coordinate 0: {message}\n"


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_max_dim_env_is_one_error_line(capsys, monkeypatch, square_file, raw):
    monkeypatch.setenv("SPINALTRI_MAX_DIM", raw)
    code = main(["facets", square_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: SPINALTRI_MAX_DIM is '{raw}', not a positive integer\n"


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["triangulate", "{cube}", "--spinal", "--set", "0,7", "--order", "7,6,5,4,3,2,1,0"],
         "--spinal pulls the spine first and takes no --order"),
        (["triangulate", "{cube}", "--set", "0,7"], "--set applies only with --spinal"),
        (["everest", "vertices", "2", "2", "--method", "hull"],
         "--method applies only to everest volume"),
        (["everest", "verify", "1", "2", "--method", "formula"],
         "--method applies only to everest volume"),
        (["everest", "vertices", "2", "2", "--lifting"], "--lifting applies only to everest verify"),
        (["everest", "volume", "2", "2", "--lifting"], "--lifting applies only to everest verify"),
        (["birkhoff", "context", "3", "--volume"], "--volume applies only to birkhoff verify"),
        (["birkhoff", "project", "3", "--volume"], "--volume applies only to birkhoff verify"),
    ],
    ids=[
        "spinal-order", "set-without-spinal", "vertices-method", "verify-method",
        "vertices-lifting", "volume-lifting", "context-volume", "project-volume",
    ],
)
def test_option_that_does_not_apply_is_one_error_line(capsys, cube_file, argv, message):
    # Each option would otherwise be dropped without a word.
    code = main([a.format(cube=cube_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# A value for each option of the table's rows that takes one, and for each
# positional but an action.
OPTION_VALUES = {"--set": "0,7", "--order": "7,6,5,4,3,2,1,0", "--method": "hull"}
POSITIONALS = {"polytope": str(GOLDEN / "inputs" / "cube3.json"), "n": "3", "s": "2"}


def _misapplied():
    """(argv, refusal) for each row of `cli.VERBS` and each action, or each
    state of the option the row names, where the row does not apply: the
    row's option is given, and with every given option each option that it
    needs by another row."""
    for verb, (_, _, arguments, rows) in cli.VERBS.items():
        for option, key, value, refusal in rows:
            states = [True, False] if key.startswith("--") else dict(arguments)[key]["choices"]
            for state in (s for s in states if s != value):
                given = {option} | ({key} if state is True else set())
                given |= {b for a, b, v, _ in rows if a in given and v is True and b != key}
                argv = [verb]
                for name, _ in arguments:
                    if not name.startswith("--"):
                        argv.append(state if name == key else POSITIONALS[name])
                    elif name in given:
                        argv += [name, OPTION_VALUES[name]] if name in OPTION_VALUES else [name]
                yield argv, refusal


@pytest.mark.parametrize("argv,refusal", list(_misapplied()))
def test_each_row_of_the_verb_table_refuses_its_option_where_it_does_not_apply(
    capsys, argv, refusal
):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"


def test_everest_volume_method_defaults_to_formula(capsys):
    code, out = run(capsys, "everest", "volume", "1", "2")
    assert code == 0
    assert json.loads(out) == {"method": "formula", "n": 1, "s": 2, "volume": "3"}


@pytest.mark.parametrize("token", ["0_7", "+7", "\u0667", "7x", "--7", "1.0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spine-check", "{cube}", "--set", "0,{tok}"],
        ["fold", "{cube}", "--set", "0,{tok}"],
        ["verify-lifting", "{cube}", "--set", "0,{tok}"],
        ["triangulate", "{cube}", "--spinal", "--set", "0,{tok}"],
        ["lift", "{cube}", "--set", "0,{tok}", "--star", "unread.json"],
        ["triangulate", "{cube}", "--order", "0,1,2,3,4,5,6,{tok}"],
        ["volume", "{cube}", "--order", "0,1,2,3,4,5,6,{tok}"],
        ["fold", "{cube}", "--set", "0,7", "--order", "0,1,2,3,4,5,6,{tok}"],
    ],
    ids=[
        "spine-check",
        "fold",
        "verify-lifting",
        "triangulate-spinal",
        "lift",
        "triangulate-order",
        "volume-order",
        "fold-order",
    ],
)
def test_non_ascii_integer_index_is_rejected(capsys, cube_file, argv, token):
    # int() reads the first three tokens as 7, so the index set was aliased;
    # it rejects the other three, but the message did not name the token.
    at = next(i for i, a in enumerate(argv) if "{tok}" in a)
    argv = [a.format(cube=cube_file, tok=token) for a in argv]
    option, raw = argv[at - 1], argv[at]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"error: index {token!r} in {option} {raw!r} is not an integer\n"
    )


@pytest.mark.parametrize("token", ["0_2", "+2", "\u0662", "2x", "x"])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["spine-enum", "{cube}", "--min-size", "{tok}"], "--min-size"),
        (["everest", "volume", "{tok}", "2"], "n"),
        (["everest", "verify", "1", "{tok}"], "s"),
        (["birkhoff", "context", "{tok}"], "n"),
    ],
    ids=["spine-enum-min-size", "everest-n", "everest-s", "birkhoff-n"],
)
def test_non_ascii_integer_argument_is_rejected(capsys, cube_file, argv, name, token):
    # int() reads the first three tokens as 2, so the command ran with a
    # value it was not given; argparse rejected the others as usage errors.
    code = main([a.format(cube=cube_file, tok=token) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {name} {token!r} is not an integer\n"


NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["everest", "volume", NINES, "1"], "n: integer of 5000 digits"),
        (["everest", "vertices", "2", NINES], "s: integer of 5000 digits"),
        (["birkhoff", "context", "-" + NINES], "n: integer of 5000 digits"),
        (["spine-enum", "{cube}", "--min-size", NINES], "--min-size: integer of 5000 digits"),
        (["volume", "{cube}", "--order", "0," + NINES], "index in --order: integer of 5000 digits"),
    ],
    ids=["everest-n", "everest-s", "birkhoff-n", "spine-enum-min-size", "volume-order"],
)
def test_integer_past_the_bound_is_one_error_line(capsys, cube_file, argv, message):
    # int() refused these with the interpreter's own limit message and its
    # hint to call sys.set_int_max_str_digits().
    code = main([a.format(cube=cube_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message} is past the 4300-digit limit\n"


def test_integer_at_the_bound_is_read(capsys, cube_file):
    code, out = run(capsys, "spine-enum", cube_file, "--min-size", "0" * 4299 + "3")
    assert code == 0
    assert json.loads(out)["min_size"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "{cube}"],
        ["fold", "{cube}", "--set", "0,7"],
        ["triangulate", "{cube}"],
    ],
    ids=["volume", "fold", "triangulate"],
)
def test_empty_order_is_no_permutation(capsys, cube_file, argv):
    # An empty --order was read as no order and ran the default one.
    argv = [a.format(cube=cube_file) for a in argv]
    errors = []
    for order in ("", ","):
        assert main(argv + ["--order", order]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: order must be a permutation of all vertex indices\n"] * 2


def test_integer_arguments_may_carry_spaces_and_signs(capsys, cube_file):
    code, out = run(capsys, "spine-enum", cube_file, "--min-size", " 3 ")
    assert code == 0
    assert json.loads(out)["min_size"] == 3
    code, out = run(capsys, "everest", "volume", " 2", "2 ")
    assert code == 0
    assert json.loads(out) == {"method": "formula", "n": 2, "s": 2, "volume": "15/4"}
    code = main(["everest", "volume", "-1", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: both parameters must be positive\n"


def test_index_tokens_may_carry_spaces(capsys, cube_file):
    code, out = run(capsys, "spine-check", cube_file, "--set", " 0, 7 ,")
    assert code == 0
    assert json.loads(out) == {"is_spine": True, "set": [0, 7]}
    code, out = run(capsys, "volume", cube_file, "--order", "7, 6,5,4,3,2,1, 0")
    assert code == 0
    assert json.loads(out)["volume"] == "1"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["spine-check", "{cube}", "--set", "0,-1"], "spine indices out of range"),
        (
            ["volume", "{cube}", "--order", "0,1,2,3,4,5,6,-1"],
            "order must be a permutation of all vertex indices",
        ),
    ],
    ids=["set", "order"],
)
def test_negative_index_keeps_range_error(capsys, cube_file, argv, err):
    code = main([a.format(cube=cube_file) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


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
    assert captured.err == "error: vertex 1 coordinate 0: zero denominator in '1/0'\n"


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


def test_selftest_fails_a_raising_criterion_and_runs_the_rest(capsys, monkeypatch):
    # A check that raises fails its own criterion, its error's type and
    # message the detail; the criteria after it still run.
    from spinaltri import selfcheck
    from spinaltri.triangulation import ShadowInternalError

    ran = []

    def passing(ws):
        ran.append(ws)
        return True, "ok"

    def raising(exc):
        def check(ws):
            raise exc

        return check

    monkeypatch.setattr(selfcheck, "CRITERIA", [
        ("first", passing),
        ("raises-value", raising(ValueError("reconstruction failed"))),
        ("raises-shadow", raising(ShadowInternalError("vertex 3 projected to zero"))),
        ("last", passing),
    ])
    code, out = run(capsys, "selftest")
    lines = out.splitlines()
    assert code == 1
    assert [line.split()[:4] for line in lines if line.startswith("criterion")] == [
        ["criterion", str(i), name, status]
        for i, (name, status) in enumerate(
            [("first", "PASS"), ("raises-value", "FAIL"), ("raises-shadow", "FAIL"),
             ("last", "PASS")],
            start=1,
        )
    ]
    assert lines[2] == "    ValueError: reconstruction failed"
    assert lines[4] == "    ShadowInternalError: vertex 3 projected to zero"
    assert lines[-1] == "2 criterion(s) failed: raises-value, raises-shadow"
    assert len(ran) == 2
    code, out = run(capsys, "selftest", "--only", "raises-shadow")
    assert code == 1 and out.splitlines()[1:] == [
        "    ShadowInternalError: vertex 3 projected to zero",
        "1 criterion(s) failed: raises-shadow",
    ]


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
