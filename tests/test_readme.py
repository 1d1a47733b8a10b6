"""The README's figures that the source can check."""

import re
from pathlib import Path

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
