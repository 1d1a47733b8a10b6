"""One answer per question across commands, on every golden input.

`volume` and `triangulate` both pull the polytope, so they must agree on
the cells and on which orders they refuse; and a spine whose shadow has
dimension e = 0 has a one-point shadow, which the volume law counts with
squared volume 1.  A one-vertex polytope is the 0-simplex throughout.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from spinaltri import io as sio
from spinaltri.spine import spine
from spinaltri.triangulation import pulling_triangulation, shadow, shadow_polytope
from spinaltri.volume import lifting_relation_report, polytope_volume
from test_golden_cli import _select_spines

INPUTS = sorted((Path(__file__).resolve().parent / "golden" / "inputs").glob("*.json"))


def _loads(path: Path):
    try:
        return sio.load_polytope(str(path))
    except ValueError:  # malformed documents and star files
        return None


POLYTOPES = [(path.stem, p) for path in INPUTS if (p := _loads(path)) is not None]


def _outcome(fn, p, order) -> str:
    try:
        fn(p, order)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def test_every_valid_golden_input_loads():
    names = {name for name, _ in POLYTOPES}
    assert {"point", "segment", "triangle", "cube3", "cube4"} <= names


@pytest.mark.parametrize("name,p", POLYTOPES, ids=[name for name, _ in POLYTOPES])
def test_volume_and_triangulate_agree(name, p):
    assert polytope_volume(p).n_simplices == pulling_triangulation(p).n_simplices
    n = p.n_vertices
    for order in ([n], [0] * n, []):
        got = _outcome(polytope_volume, p, order)
        assert got == _outcome(pulling_triangulation, p, order), order
        if sorted(order) != list(range(n)):  # [0] is the one order of a point
            assert got.startswith("TriangulationError: order must be a permutation")


@pytest.mark.parametrize("name,p", POLYTOPES, ids=[name for name, _ in POLYTOPES])
def test_point_shadows_have_squared_volume_one(name, p):
    for s in _select_spines(p)[0]:
        sp = spine(p, s)
        sm = shadow(sp)
        if sm.e != 0:
            continue
        assert shadow_polytope(sm).dim == 0
        assert polytope_volume(shadow_polytope(sm)).sq_volume == 1
        assert lifting_relation_report(sp).vol_shadow_sq == 1
