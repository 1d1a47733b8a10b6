"""Golden CLI corpus: byte-for-byte answers of the command-line front end.

`golden/corpus.json` lists commands with, for each, the exit code and the
SHA-256 of stdout and of stderr.  The test reruns every command in-process
through `cli.main`, with `golden/` as the working directory so that the
relative input paths (and the paths that error messages quote) are fixed,
and requires the same three values.  Selftest timings are masked.

The corpus covers every verb, `--pretty`, default and reversed pulling
orders, spine pairs and triples, fold/lift round trips, Everest and
Birkhoff n <= 4, and the error paths: malformed documents, rationals past
the input token bound, rejected index and integer tokens, usage errors.

Regenerate the corpus and its inputs from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py --write

which prints the argv of every command added, removed or changed against
the corpus it replaces.  A change that rewrites it says which commands
changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from spinaltri.cli import build_parser, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "corpus.json"
_TIMING = re.compile(r"\(\d+\.\d+s\)")


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call; run it with
    `golden/` as the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    text = out.getvalue()
    if argv and argv[0] == "selftest":
        text = _TIMING.sub("(masked)", text)
    return code, text, err.getvalue()


def record(argv: list[str]) -> dict:
    code, out, err = run_command(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_replays_byte_for_byte(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv("SPINALTRI_MAX_DIM", raising=False)
    corpus = load_corpus()
    changed = [want for want in corpus if record(want["argv"]) != want]
    assert not changed, f"{len(changed)} of {len(corpus)} commands changed:\n" + "\n".join(
        describe_change(want) for want in changed[:10]
    )


def describe_change(want: dict) -> str:
    """One line on how a recorded command now behaves: its argv, the old and
    new exit codes, and the first line of the new stdout, or of the new
    stderr when stdout is empty."""
    code, out, err = run_command(want["argv"])
    first = (out or err).partition("\n")[0]
    return f"  {want['argv']}: exit {want['exit']} -> {code}, now {first!r}"


def test_corpus_records_each_argv_once():
    argvs = [json.dumps(e["argv"]) for e in load_corpus()]
    assert len(set(argvs)) == len(argvs)


def test_corpus_covers_every_verb():
    verbs = set(build_parser()._subparsers._group_actions[0].choices)
    seen = {e["argv"][0] for e in load_corpus() if e["argv"]}
    assert verbs <= seen
    codes = {e["exit"] for e in load_corpus()}
    assert codes == {0, 1, 2}


def test_corpus_changes_names_every_difference():
    def entry(argv, code=0):
        return {"argv": argv, "exit": code, "stdout": "a", "stderr": "b"}

    old = [entry(["x"]), entry(["y"]), entry(["y"]), entry(["z"])]
    new = [entry(["x"]), entry(["y"]), entry(["y"], 1), entry(["w"])]
    assert corpus_changes(old, new) == [
        ("changed", ["y"]),
        ("added", ["w"]),
        ("removed", ["z"]),
    ]
    assert corpus_changes(new, new) == []


# --- the writer ---------------------------------------------------------------


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _doc(points) -> dict:
    return {"ambient_dim": len(points[0]), "vertices": [[_fmt(x) for x in q] for q in points]}


def _valid_inputs() -> dict[str, list]:
    """Named polytopes in convex position, as coordinate lists."""
    from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
    from spinaltri.linalg import QVector
    from spinaltri.polytope import make_polytope
    from test_frame_oracle import embed

    def cube(d):
        return [list(b) for b in itertools.product((0, 1), repeat=d)]

    def simplex(d):
        return [[0] * d] + [[int(j == i) for j in range(d)] for i in range(d)]

    out = {
        "point": [[2, 3]],
        "segment": [[0, 1], [3, 5]],
        "triangle": simplex(2),
        "square": cube(2),
        "hexagon": [[1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]],
        "parabola10": [[t, t * t] for t in range(-4, 6)],
        "simplex3": simplex(3),
        "cube3": cube(3),
        "octahedron": [[s * int(j == i) for j in range(3)] for i in range(3) for s in (1, -1)],
        "cube4": cube(4),
        "S22": [list(v) for v in simplotope_with_spine(2, 2)[0].vertices],
        "E12": [list(v) for v in everest_polytope(EverestParams(1, 2)).vertices],
        "E13": [list(v) for v in everest_polytope(EverestParams(1, 3)).vertices],
    }
    rng = random.Random(2026)
    for k in range(2):
        ts = rng.sample(range(-5, 6), 6 + k)
        out[f"moment{k}"] = [[Fraction(t, 2), Fraction(t * t, 4), Fraction(t**3, 8)] for t in ts]
    cube3 = make_polytope([QVector(v) for v in cube(3)])
    for extra in (0, 1):
        out[f"skew-cube3-{extra}"] = [list(v) for v in embed(cube3, rng, extra).vertices]
    return out


_BAD_DOCS = {
    "bad-string": '"hello"',
    "bad-null": "null",
    "bad-syntax": '{"ambient_dim": 2, "vertices": [["0", "0"],',
    "bad-no-ambient-dim": '{"vertices": [["0"], ["1"]]}',
    "bad-null-coordinate": '{"ambient_dim": 2, "vertices": [["0", "0"], [null, "1"]]}',
    "bad-zero-denominator": '{"ambient_dim": 1, "vertices": [["0"], ["1/0"]]}',
    "bad-number-rows": '{"ambient_dim": 2, "vertices": [5, ["1", "0"], ["0", "1"]]}',
    "bad-dimension": '{"ambient_dim": 3, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}',
    "bad-max-dim": json.dumps(_doc([[int(j == i) for j in range(9)] for i in range(9)])),
    "floats": '{"ambient_dim": 2, "vertices": [[0.5, 0], [1, 0.25], [0, 1]]}',
    "square-centre": json.dumps(_doc([[0, 0], [0, 1], [1, 0], [1, 1], ["1/2", "1/2"]])),
    "duplicate": json.dumps(_doc([[0, 0], [0, 1], [1, 0], [0, 1]])),
    "bad-exponent": '{"ambient_dim": 2, "vertices": [["1e400000", "0"], ["0", "1"]]}',
    "bad-vast-exponent": '{"ambient_dim": 2, "vertices": [["1e4000000000", "0"], ["0", "1"]]}',
    "bad-long-numerator": json.dumps(
        {"ambient_dim": 2, "vertices": [["7" * 5000, "0"], ["0", "1"]]}
    ),
    # Fraction() reads each of these as 3 or 10; as coordinates they are refused.
    **{
        name: json.dumps({"ambient_dim": 2, "vertices": [[tok, "0"], ["0", "1"], ["0", "0"]]})
        for name, tok in (
            ("bad-arabic-indic-digit", "\u0663"),
            ("bad-fullwidth-digit", "\uff13"),
            ("bad-underscore", "1_0"),
        )
    },
}

_BAD_STARS = {
    "star-string": '"hello"',
    "star-no-simplices": '{"dim": 2}',
    "star-number": '{"simplices": 5}',
    "star-string-cell": '{"simplices": [[0, 1, 2], "012"]}',
}


def _star_edits(cells):
    yield "out-of-range", [[0, 1, 99]] + cells[1:]
    yield "negative", [[-1 if i == 6 else i for i in c] for c in cells]
    yield "repeated", cells + [cells[0][::-1]]
    yield "dropped", cells[1:]
    yield "boolean", [[0, True, 3]] + cells[1:]
    yield "fractional", [[0, 1.5, 3]] + cells[1:]


# Stars in range that lift refuses: the origin count, then validation.
_LIFT_FAILURES = {
    "star-no-origin": [[1, 2, 3]],
    "star-two-origins": [[0, 0, 1]],
    "star-short-cell": [[0, 1]],
    "star-flat-cell": [[0, 1, 6]],
}


def _polytope_commands(name: str, path: str, n: int, spines: list, others: list):
    rev = ",".join(str(i) for i in reversed(range(n)))
    yield ["facets", path]
    yield ["facets", path, "--pretty"]
    yield ["volume", path]
    yield ["volume", path, "--pretty"]
    yield ["volume", path, "--order", rev]
    yield ["triangulate", path]
    yield ["triangulate", path, "--pretty"]
    yield ["triangulate", path, "--order", rev]
    yield ["spine-enum", path]
    yield ["spine-enum", path, "--min-size", "1"]
    yield ["spine-enum", path, "--min-size", "3", "--pretty"]
    for k, s in enumerate(spines):
        raw = ",".join(map(str, s))
        star = f"inputs/star-{name}-{'-'.join(map(str, s))}.json"
        yield ["spine-check", path, "--set", raw]
        yield ["verify-lifting", path, "--set", raw]
        yield ["triangulate", path, "--spinal", "--set", raw]
        yield ["fold", path, "--set", raw]
        yield ["lift", path, "--set", raw, "--star", star]
        if k == 0:
            rest = [i for i in reversed(range(n)) if i not in s]
            order = ",".join(map(str, list(s) + rest))
            yield ["verify-lifting", path, "--set", raw, "--pretty"]
            yield ["fold", path, "--set", raw, "--pretty"]
            yield ["fold", path, "--set", raw, "--order", order]
            if order != rev:  # for one vertex both orders are "0"
                yield ["fold", path, "--set", raw, "--order", rev]
            yield ["lift", path, "--set", raw, "--star", star, "--pretty"]
    for s in others:
        raw = ",".join(map(str, s))
        yield ["spine-check", path, "--set", raw, "--pretty"]
        yield ["verify-lifting", path, "--set", raw]
        yield ["fold", path, "--set", raw]
    yield ["spine-check", path, "--set", ""]
    yield ["spine-check", path, "--set", f"0,{n}"]
    yield ["spine-check", path, "--set", "0,-1"]


def _select_spines(p) -> tuple[list, list]:
    """Vertex 0, up to four spine pairs and three spines of size >= 3, and up
    to two vertex pairs that are not spines."""
    from spinaltri.spine import enumerate_spines, is_spine

    found = enumerate_spines(p, 2)
    spines = [(0,)]
    spines += [s for s in found if len(s) == 2][:4]
    spines += [s for s in found if len(s) >= 3][:3]
    others = [
        s for s in itertools.combinations(range(p.n_vertices), 2) if not is_spine(p, s)
    ][:2]
    return spines, others


def commands() -> list[list[str]]:
    """Write the inputs under `golden/inputs/` and return the command list;
    run it with `golden/` as the working directory."""
    from spinaltri import io as sio
    from spinaltri.linalg import QVector
    from spinaltri.polytope import make_polytope
    from spinaltri.spine import spine
    from spinaltri.triangulation import fold, shadow, spinal_triangulation

    inputs = GOLDEN / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for old in inputs.glob("*.json"):
        old.unlink()

    def write(fname: str, text: str) -> str:
        (inputs / fname).write_text(text)
        return f"inputs/{fname}"

    cmds: list[list[str]] = []
    for name, pts in _valid_inputs().items():
        path = write(f"{name}.json", json.dumps(_doc(pts), indent=1) + "\n")
        p = make_polytope([QVector(q) for q in pts])
        spines, others = _select_spines(p)
        for s in spines:
            sm = shadow(spine(p, s))
            star = sio.triangulation_to_doc(fold(spinal_triangulation(sm.spine), sm))
            write(f"star-{name}-{'-'.join(map(str, s))}.json", json.dumps(star) + "\n")
        cmds += _polytope_commands(name, path, p.n_vertices, spines, others)

    cube, star = "inputs/cube3.json", json.loads((inputs / "star-cube3-0-7.json").read_text())
    for fname, text in _BAD_DOCS.items():
        path = write(f"{fname}.json", text)
        cmds += [["facets", path], ["volume", path], ["spine-enum", path]]
    cmds.append(["facets", "inputs/missing.json"])
    for fname, text in _BAD_STARS.items():
        cmds.append(["lift", cube, "--set", "0,7", "--star", write(f"{fname}.json", text)])
    for label, cells in _star_edits(star["simplices"]):
        path = write(f"star-{label}.json", json.dumps({"simplices": cells}) + "\n")
        cmds.append(["lift", cube, "--set", "0,7", "--star", path])
    for fname, cells in _LIFT_FAILURES.items():
        path = write(f"{fname}.json", json.dumps({"simplices": cells}) + "\n")
        cmds.append(["lift", cube, "--set", "0,7", "--star", path])
    cmds.append(["lift", cube, "--set", "0,7", "--star", "inputs/missing.json"])
    # A star file's "dim" and "shadow_points" must be those of the shadow.
    for label, dim in (("wrong", 9), ("string", "x")):
        path = write(f"star-dim-{label}.json", json.dumps({**star, "dim": dim}) + "\n")
        cmds.append(["lift", cube, "--set", "0,7", "--star", path])
    _, folded, _ = run_command(["fold", str(inputs / "cube3.json"), "--set", "0,7"])
    path = write("star-folded-cube3-0-7.json", folded)
    cmds.append(["lift", cube, "--set", "1,6", "--star", path])
    cmds.append(["triangulate", cube, "--spinal"])
    cmds.append(["triangulate", cube, "--spinal", "--set", "0,1"])
    cmds.append(["triangulate", cube, "--order", "0,1,2"])
    cmds.append(["triangulate", cube, "--spinal", "--set", "0,7", "--order", "7,6,5,4,3,2,1,0"])
    cmds.append(["triangulate", cube, "--set", "0,7"])
    cmds.append(["fold", cube, "--set", "0,7", "--order", "1,0,2,3,4,5,6,7"])
    for argv in (["volume", cube], ["fold", cube, "--set", "0,7"], ["triangulate", cube]):
        cmds.append(argv + ["--order", ""])  # an empty order is no permutation
    # A point has one vertex, so only the order "0" is a permutation.
    for order in ("5", "", "0,0"):
        cmds.append(["volume", "inputs/point.json", "--order", order])
    cmds.append(["spine-enum", cube, "--min-size", "0"])
    cmds.append(["spine-enum", cube, "--min-size", "-1"])
    for tok in ("0_7", "+7", "٧", "7x", "--7", "1.0"):
        cmds.append(["spine-check", cube, "--set", f"0,{tok}"])
        cmds.append(["volume", cube, "--order", f"0,1,2,3,4,5,6,{tok}"])
    cmds.append(["spine-check", cube, "--set", "0,3,3"])
    cmds.append(["spine-check", cube, "--set", " 0, 7 ,"])

    for n, s in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)]:
        a, b = str(n), str(s)
        cmds.append(["everest", "vertices", a, b])
        for method in ("formula", "hull", "lifting"):
            cmds.append(["everest", "volume", a, b, "--method", method])
        cmds.append(["everest", "verify", a, b])
        cmds.append(["everest", "verify", a, b, "--lifting"])
    cmds.append(["everest", "vertices", "2", "2", "--pretty"])
    cmds.append(["everest", "volume", "2", "2", "--pretty"])
    cmds.append(["everest", "verify", "2", "2", "--lifting", "--pretty"])
    cmds.append(["everest", "volume", "3", "2", "--method", "hull"])
    cmds.append(["everest", "volume", "0", "2"])
    cmds.append(["everest", "volume", "2", "0"])
    cmds.append(["everest", "volume", "-1", "2"])
    cmds.append(["everest", "volume", "60", "60"])
    cmds.append(["everest", "volume", "2", "2"])
    cmds.append(["everest", "vertices", "2", "2", "--method", "hull"])
    cmds.append(["everest", "verify", "2", "2", "--method", "formula"])
    cmds.append(["everest", "vertices", "2", "2", "--lifting"])
    cmds.append(["everest", "volume", "2", "2", "--lifting"])
    for tok in ("0_2", "+2", "٢", "2x", "x", "1.0", " 2 "):
        cmds.append(["spine-enum", cube, "--min-size", tok])
        cmds.append(["everest", "volume", tok, "2"])
        cmds.append(["everest", "vertices", "1", tok])
        cmds.append(["birkhoff", "context", tok])

    for n in ("1", "2", "3", "4", "5", "6"):
        cmds.append(["birkhoff", "context", n])
    for n in ("2", "3", "4"):
        cmds.append(["birkhoff", "context", n, "--pretty"])
        cmds.append(["birkhoff", "project", n])
        cmds.append(["birkhoff", "verify", n])
    cmds.append(["birkhoff", "project", "5"])
    cmds.append(["birkhoff", "project", "3", "--pretty"])
    cmds.append(["birkhoff", "verify", "2", "--volume"])
    cmds.append(["birkhoff", "verify", "3", "--volume"])
    cmds.append(["birkhoff", "verify", "4", "--volume"])
    cmds.append(["birkhoff", "verify", "3", "--volume", "--pretty"])
    cmds.append(["birkhoff", "context", "3", "--volume"])
    cmds.append(["birkhoff", "project", "3", "--volume"])

    cmds.append(["selftest"])
    for only in ("2", "everest-volume", "fold-lift-bijection", "99", "x"):
        cmds.append(["selftest", "--only", only])

    cmds += [
        [],
        ["frobnicate"],
        ["facets"],
        ["spine-check", cube],
        ["everest", "volume", "2"],
        ["everest", "cube", "2", "2"],
        ["everest", "volume", "2", "2", "--method", "exact"],
        ["birkhoff", "context"],
    ]
    return cmds


def corpus_changes(old: list[dict], new: list[dict]) -> list[tuple[str, list[str]]]:
    """("added" | "removed" | "changed", argv) for every entry of new that
    old lacks or records differently, and every entry of old that new lacks.
    A repeated argv is matched in order of appearance."""
    pending: dict[str, list[dict]] = {}
    for e in old:
        pending.setdefault(json.dumps(e["argv"]), []).append(e)
    out = []
    for e in new:
        prev = pending.get(json.dumps(e["argv"]))
        if not prev:
            out.append(("added", e["argv"]))
        elif prev.pop(0) != e:
            out.append(("changed", e["argv"]))
    out += [("removed", e["argv"]) for left in pending.values() for e in left]
    return out


def write_corpus() -> None:
    os.environ.pop("SPINALTRI_MAX_DIM", None)
    old = load_corpus() if CORPUS.exists() else []
    cmds = commands()
    os.chdir(GOLDEN)
    new = [record(argv) for argv in cmds]
    entries = [json.dumps(e, ensure_ascii=False) for e in new]
    CORPUS.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} commands to {CORPUS}")
    for kind, argv in corpus_changes(old, new):
        print(f"{kind}: {json.dumps(argv, ensure_ascii=False)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    write_corpus()
