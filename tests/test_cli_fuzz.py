"""The command line on mutated input files: one `error:` line or an answer.

Hypothesis takes a command of the golden corpus that reads a polytope or a
star file, mutates one of those files and runs `cli.main` on the result.
The mutations are hostile literals (null, booleans, JSON numbers, NaN,
non-ASCII digits, tokens past the input bound, empty containers) in place
of any node, deep nesting, long lists, dropped entries and keys, wrong
top-level types, truncated text and bytes that are not UTF-8.  Every case
must exit 0 with nothing on stderr and, without --pretty, one JSON
document on stdout, or exit 1 with nothing on stdout and exactly one
stderr line that starts with `error:`.  No case may raise, and each must
finish within CASE_SECONDS.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spinaltri.cli import main
from test_golden_cli import GOLDEN, load_corpus

# Each case runs in milliseconds; the bound only catches a runaway input.
CASE_SECONDS = 10.0

VERBS = {
    "facets", "volume", "triangulate", "spine-enum", "spine-check",
    "verify-lifting", "fold", "lift",
}

HOSTILE = [
    "null", "true", "false", "0", "-0", "-1", "2", "1.5", "1e999", "-1e-999",
    "NaN", "Infinity", "-Infinity", "[]", "{}", "[[]]", '{"a": 1}',
    '""', '" "', '"abc"', '"1/0"', '"0/0"', '"1/-2"', '"+1"', '"1_0"',
    '"0x10"', '"1e400000"', '"1e-400000"', '"1e4000000000"', '"1e"',
    '"\\u0663"', '"\\u00bd"', '"\\uff11"', '"\\ud800"', '"1\\n2"',
    '"' + "7" * 5000 + '"', "7" * 5000, '"1/' + "3" * 5000 + '"',
    "7" * 4301 + ".5", "[" + ",".join(["0"] * 40) + "]",
]

HOLE = "\x00hole\x00"


def _bases() -> list[tuple[list[str], int]]:
    """(argv, position of one input file in argv) over the corpus commands
    of the verbs that read files, usage errors (exit 2) left out."""
    out = []
    for entry in load_corpus():
        argv = entry["argv"]
        if not argv or argv[0] not in VERBS or entry["exit"] == 2:
            continue
        for k, arg in enumerate(argv):
            if arg.startswith("inputs/") and (GOLDEN / arg).is_file():
                out.append((argv, k))
    return out


BASES = _bases()


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))


def _replace(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_inputs(draw) -> tuple[list[str], int, bytes]:
    """A base command, the position of the file it mutates, and the
    mutated file's bytes."""
    argv, k = draw(st.sampled_from(BASES))
    text = (GOLDEN / argv[k]).read_text(encoding="utf-8")
    kinds = ["truncate", "bytes"]
    try:
        doc = json.loads(text)
    except ValueError:  # the corpus's malformed documents: text mutations
        pass
    else:
        kinds += ["hostile", "nest", "repeat", "drop"]
        path = draw(st.sampled_from(list(_nodes(doc))))
        node = _get(doc, path)
    kind = draw(st.sampled_from(kinds))
    if kind == "hostile":
        raw = draw(st.sampled_from(HOSTILE))
    elif kind == "nest":
        depth = draw(st.sampled_from([2, 50, 1000, 100_000]))
        raw = "[" * depth + json.dumps(node) + "]" * depth
    elif kind == "repeat" and isinstance(node, (list, dict)):
        times = draw(st.integers(2, 40))
        items = node if isinstance(node, list) else list(node.values())
        raw = json.dumps(items * times)
    elif kind == "drop" and isinstance(node, (list, dict)) and node:
        if isinstance(node, list):
            cut = draw(st.integers(0, len(node) - 1))
            raw = json.dumps(node[:cut] + node[cut + 1 :])
        else:
            key = draw(st.sampled_from(sorted(node)))
            raw = json.dumps({a: b for a, b in node.items() if a != key})
    elif kind == "truncate":
        cut = draw(st.integers(0, max(len(text) - 1, 0)))
        return argv, k, text[:cut].encode()
    elif kind == "bytes":
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\xef\xbb\xbf"]))
        return argv, k, text[:at].encode() + junk + text[at:].encode()
    else:
        raw = draw(st.sampled_from(HOSTILE))
    body = json.dumps(_replace(doc, path, HOLE)).replace(json.dumps(HOLE), raw)
    return argv, k, body.encode()


class Overtime(Exception):
    """A case ran past CASE_SECONDS; not a ValueError or OSError, so the
    command line does not turn it into an `error:` line."""


def _on_alarm(signum, frame):
    raise Overtime(f"a case ran past {CASE_SECONDS} s")


def run_bounded(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and seconds of one in-process CLI call,
    interrupted by a timer at CASE_SECONDS."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check_case(argv: list[str], k: int, body: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / Path(argv[k]).name
        target.write_bytes(body)
        args = [
            str(target) if i == k else str(GOLDEN / a) if a.startswith("inputs/") else a
            for i, a in enumerate(argv)
        ]
        code, out, err, seconds = run_bounded(args)
    assert seconds < CASE_SECONDS, (argv, body[:200])
    if code == 0:
        assert err == "", (argv, body[:200], err)
        if "--pretty" not in argv:  # pretty output may be empty
            json.loads(out)
    else:
        assert code == 1, (argv, body[:200], code, err)
        assert out == "", (argv, body[:200], out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, body[:200], err)
        assert err.startswith("error: "), (argv, body[:200], err)


@settings(max_examples=300)
@given(mutated_inputs())
def test_mutated_inputs_exit_cleanly(case):
    check_case(*case)


def test_every_base_command_is_sampled():
    # Each verb that reads a file, polytope and star files alike.
    assert {argv[0] for argv, _ in BASES} == VERBS
    assert any(argv[k].split("/")[1].startswith("star-") for argv, k in BASES)
