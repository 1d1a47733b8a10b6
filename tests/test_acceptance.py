"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
pass/fail report per criterion, or ``spinaltri selftest`` for the same
checks outside pytest.
"""

import pytest

from spinaltri.selfcheck import CRITERIA, Workspace

_ws = None


def workspace():
    global _ws
    if _ws is None:
        _ws = Workspace()
    return _ws


def _run(number, name, fn):
    ok, detail = fn(workspace())
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.mark.parametrize(
    "number,name,fn",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA, start=1)],
    ids=[f"{i:02d}-{name}" for i, (name, _) in enumerate(CRITERIA, start=1)],
)
def test_acceptance_criterion(number, name, fn):
    _run(number, name, fn)


def test_fold_lift_criterion_places_each_shadows_points_once(monkeypatch):
    # lift validates each lifted star on P's own vertices, and fold its cells
    # on the shadow map's star points, whose table the shadow keeps; no other
    # validation places a point, so each of the three shadows places its
    # points once.
    import spinaltri.polytope
    from spinaltri.selfcheck import check_fold_lift_bijection

    calls = []
    real = spinaltri.polytope.hull_ints

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spinaltri.polytope, "hull_ints", counted)
    ok, detail = check_fold_lift_bijection(Workspace())
    assert ok, detail
    assert len(calls) == 3
