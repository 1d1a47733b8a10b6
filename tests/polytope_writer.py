"""The polytope writer `spinaltri.io` dropped once only tests called it,
kept verbatim: the CLI reads polytopes and never writes one, and the tests
write their input files with it."""

from __future__ import annotations

import json
from typing import Any

from spinaltri.io import vector_to_strings
from spinaltri.polytope import Polytope


def polytope_to_doc(p: Polytope) -> dict[str, Any]:
    return {
        "ambient_dim": p.ambient_dim,
        "vertices": [vector_to_strings(v) for v in p.vertices],
    }


def save_polytope(p: Polytope, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(polytope_to_doc(p), fh, indent=1)
        fh.write("\n")
