"""Every function in `src/spinaltri` is run by the system, or is named here.

The golden CLI corpus (which includes `selftest`) is replayed with
`run_command`, and the three `scripts/` run in-process with their default
arguments and their output captured, all under `sys.setprofile`.  The
qualified names of the library's functions never entered must be exactly
`NEVER_ENTERED`: a function that only tests call belongs in `tests/`, and a
function that the system stops calling shows up here.

Run it with `--runslow`; the profiled replay takes about twice as long as
the plain one.  From the repository root,

    PYTHONPATH=src python tests/test_reachability.py --lines

runs the same replay under `sys.settrace` and prints, for each library
function the system enters, the lines of its statements that never run.
It is a tool for finding dead branches, not a test.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import runpy
import sys
from pathlib import Path

import pytest

import spinaltri
from test_golden_cli import GOLDEN, load_corpus, run_command

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(spinaltri.__file__).resolve().parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Each entry with the reason no command, selftest or script enters it.
NEVER_ENTERED = {
    # Pinned by perfbench/tracer.py's LAYERS until the tracer tolerates
    # names the library no longer defines (ROADMAP item 10).
    "se_square_matrices": "pinned by perfbench/tracer.py LAYERS",
    "inverse": "pinned by perfbench/tracer.py LAYERS",
    "frame_coords": "pinned by perfbench/tracer.py LAYERS",
    "Polytope.contains": "pinned by perfbench/tracer.py LAYERS",
    # QVector stays a hashable value type, but no system path hashes a
    # point: lift reads a star's cells off its map's own index table.
    "QVector.__hash__": "the value type is hashable; no system path hashes a point",
    "QVector.__repr__": "error messages that only the library API reaches",
    "Polytope.__repr__": "the repr of a polytope, for interactive use",
}


def _is_function(code) -> bool:
    """A function's code: no module or class body, comprehension or lambda."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and not code.co_name.startswith("<")


def _functions(code) -> set[str]:
    """The qualified names of the functions compiled into a code object."""
    names = set()
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if _is_function(const):
                names.add(const.co_qualname)
            names |= _functions(const)
    return names


def _defined() -> set[str]:
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names |= _functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return names


@functools.cache
def _in_src(filename: str) -> bool:
    return Path(filename).resolve().parent == SRC


def replay(hook, probe) -> None:
    """Run the golden corpus and the scripts in-process, as the system runs
    them, with `probe` installed by `hook` (`sys.setprofile` or
    `sys.settrace`): from `golden/`, without SPINALTRI_MAX_DIM, with each
    script's output captured.  The working directory, `sys.argv` and the
    environment are restored afterwards."""
    corpus = load_corpus()
    cwd, argv = os.getcwd(), sys.argv
    max_dim = os.environ.pop("SPINALTRI_MAX_DIM", None)
    hook(probe)
    try:
        os.chdir(GOLDEN)
        for want in corpus:
            run_command(want["argv"])
        for script in SCRIPTS:
            sys.argv = [str(script)]
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    runpy.run_path(str(script), run_name="__main__")
                except SystemExit as exc:
                    assert exc.code in (None, 0), script.name
    finally:
        hook(None)
        os.chdir(cwd)
        sys.argv = argv
        if max_dim is not None:
            os.environ["SPINALTRI_MAX_DIM"] = max_dim


@pytest.mark.slow
@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_every_library_function_is_reached_or_named():
    entered: set[str] = set()

    def probe(frame, event, arg):
        if event == "call" and _in_src(frame.f_code.co_filename):
            entered.add(frame.f_code.co_qualname)

    replay(sys.setprofile, probe)
    assert sorted(_defined() - entered) == sorted(NEVER_ENTERED)


def unexecuted_lines() -> dict:
    """For each library function the replay enters, keyed by its code
    object, the sorted lines of its statements that never run; a function
    whose every statement runs maps to an empty list.  The lines of a
    comprehension or lambda inside it are not counted."""
    executed: dict = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        code = frame.f_code
        if event == "call" and _in_src(code.co_filename) and _is_function(code):
            executed.setdefault(code, set())
            return local
        return None

    replay(sys.settrace, probe)
    out = {}
    for code, lines in executed.items():
        # The def line only starts the frame; it has no line event.
        body = {line for *_, line in code.co_lines() if line is not None}
        out[code] = sorted(body - lines - {code.co_firstlineno})
    return out


def _spans(lines: list[int]) -> str:
    """The runs of consecutive lines, as "3, 7-9" for [3, 7, 8, 9]."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def print_unexecuted_lines() -> None:
    missed = unexecuted_lines()
    partial = 0
    for code in sorted(missed, key=lambda c: (c.co_filename, c.co_firstlineno)):
        if missed[code]:
            partial += 1
            name = Path(code.co_filename).name
            print(f"{name}:{code.co_firstlineno} {code.co_qualname}: {_spans(missed[code])}")
    total = sum(map(len, missed.values()))
    print(
        f"{len(missed)} functions entered, {partial} with lines never run, "
        f"{total} such lines in all"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--lines"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reachability.py --lines")
    print_unexecuted_lines()
