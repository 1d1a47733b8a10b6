"""Every function in `src/spinaltri` is run by the system, or is named here.

The golden CLI corpus (which includes `selftest`) is replayed with
`run_command`, and the three `scripts/` run in-process with their default
arguments and their output captured, all under `sys.setprofile`.  The
qualified names of the library's functions never entered must be exactly
`NEVER_ENTERED`: a function that only tests call belongs in `tests/`, and a
function that the system stops calling shows up here.

Run it with `--runslow`; the profiled replay takes about twice as long as
the plain one.
"""

from __future__ import annotations

import contextlib
import inspect
import io
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
    # lift() hashes star points only for a star over another point table;
    # the CLI's stars are built on the map's own points.
    "ShadowMap._lift_map": "a lift over another point table",
    "QVector.__hash__": "a lift over another point table",
    "QVector.__repr__": "error messages that only the library API reaches",
    "Polytope.__repr__": "the repr of a polytope, for interactive use",
}


def _functions(code) -> set[str]:
    """The qualified names of the functions compiled into a code object."""
    names = set()
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            # Functions only: no class body, comprehension or lambda.
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                names.add(const.co_qualname)
            names |= _functions(const)
    return names


def _defined() -> set[str]:
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names |= _functions(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    return names


@pytest.mark.slow
@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in Python 3.11")
def test_every_library_function_is_reached_or_named(monkeypatch):
    entered: set[str] = set()
    in_src: dict[str, bool] = {}

    def probe(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = code.co_filename
            if name not in in_src:
                in_src[name] = Path(name).resolve().parent == SRC
            if in_src[name]:
                entered.add(code.co_qualname)

    monkeypatch.delenv("SPINALTRI_MAX_DIM", raising=False)
    corpus = load_corpus()
    sys.setprofile(probe)
    try:
        monkeypatch.chdir(GOLDEN)
        for want in corpus:
            run_command(want["argv"])
        for script in SCRIPTS:
            monkeypatch.setattr(sys, "argv", [str(script)])
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    runpy.run_path(str(script), run_name="__main__")
                except SystemExit as exc:
                    assert exc.code in (None, 0), script.name
    finally:
        sys.setprofile(None)
    assert sorted(_defined() - entered) == sorted(NEVER_ENTERED)
