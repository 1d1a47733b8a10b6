"""The README's figures that the source can check."""

import inspect
import re
from pathlib import Path

from spinaltri import everest, linalg, polytope
from spinaltri.spine import enumerate_spines

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_the_line_count_of_the_library():
    # The count `wc -l src/spinaltri/*.py` prints: newline characters.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`src/spinaltri/\*\.py` holds ([0-9,]+) lines", text)
    assert len(stated) == 1
    files = sorted((ROOT / "src" / "spinaltri").glob("*.py"))
    assert files
    assert int(stated[0].replace(",", "")) == sum(
        p.read_bytes().count(b"\n") for p in files
    )


def test_readme_states_the_caps_of_the_source():
    # Line breaks and runs of spaces read as one space.
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    enum_cap = inspect.signature(enumerate_spines).parameters["max_vertices"].default
    caps = [
        (r"`linalg\.MAX_TOKEN_DIGITS` = ([0-9,]+)", linalg.MAX_TOKEN_DIGITS),
        (r"<= ([0-9,]+) \(`everest\.MAX_SIGN_PATTERNS`", everest.MAX_SIGN_PATTERNS),
        (r"= ([0-9,]+) \(`everest\.MAX_FORMULA_FACTORIAL`\)", everest.MAX_FORMULA_FACTORIAL),
        (r"dimension ns = ([0-9,]+) \(`everest\.MAX_HULL_DIM`\)", everest.MAX_HULL_DIM),
        (r"\*Default caps:\* ([0-9,]+) vertices", polytope.DEFAULT_MAX_VERTICES),
        (r"\*Default caps:\* [0-9,]+ vertices, ambient dimension ([0-9,]+)",
         polytope.DEFAULT_MAX_AMBIENT_DIM),
        (r"spine enumeration on at most ([0-9,]+) vertices", enum_cap),
    ]
    for pattern, value in caps:
        stated = re.findall(pattern, text)
        assert stated, pattern
        assert [int(x.replace(",", "")) for x in stated] == [value] * len(stated), pattern


def test_readme_prose_is_at_most_80_columns():
    # Fenced code blocks and table rows keep their own width.
    fenced, long = False, []
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and not line.lstrip().startswith("|") and len(line) > 80:
            long.append(number)
    assert not fenced, "a code fence is never closed"
    assert long == [], f"README.md lines over 80 columns: {long}"
