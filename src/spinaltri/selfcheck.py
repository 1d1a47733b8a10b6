"""Acceptance checks runnable from pytest and from the CLI selftest verb.

Each criterion is a function over a shared lazy workspace returning
(ok, detail).  Everything is exact: every comparison below is rational
equality, never a tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from .linalg import det
from .polytope import Polytope, extreme_points, make_polytope
from .spine import enumerate_spines, spine
from .everest import (
    EverestParams,
    c_constant,
    everest_polytope,
    se_checks,
    simplotope_with_spine,
    vertex_families,
)
from .birkhoff import (
    birkhoff_context,
    block_matrix,
    determinant_identities,
    projected_birkhoff,
    verify_birkhoff_volume_relation,
)
from .triangulation import (
    Triangulation,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    spinal_triangulation,
    star_triangulation,
    validate,
)
from .volume import lifting_relation_report, polytope_volume

EVEREST_GRID = [(1, 1), (1, 2), (2, 1), (2, 2)]
EVEREST_VOLUMES = {
    (1, 1): Fraction(2),
    (1, 2): Fraction(3),
    (2, 1): Fraction(3),
    (2, 2): Fraction(15, 4),
}

# Random polytopes that the validator-suite criterion triangulates.
VALIDATOR_SUITE_INSTANCES = 200

# Projected Birkhoff polytope for n = 4: each vector read as a 2 x 3 matrix,
# rows concatenated, reproduces the published twenty vertices.
GOLDEN_PROJECTED_B4 = [
    (0, 0, 0, 0, 0, -1),
    (0, -1, 1, 0, 1, 0),
    (0, -1, 1, 0, 0, 0),
    (0, -1, 0, 0, 1, 0),
    (0, -1, 0, 0, 0, 1),
    (1, 0, -1, 0, -1, 1),
    (1, 0, -1, 0, -1, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, -1, 1, 0, 0),
    (0, 0, -1, 0, 0, 1),
    (1, 0, 0, -1, 0, 0),
    (1, 0, 0, -1, -1, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 1, 0, -1, 0, -1),
    (0, 0, 0, -1, 1, 0),
    (0, 0, 0, 0, -1, 1),
    (-1, 1, 0, 1, 0, -1),
    (-1, 1, 0, 0, 0, 0),
    (-1, 0, 1, 1, 0, 0),
    (-1, 0, 1, 0, 1, 0),
]


class Workspace:
    """Lazily built shared objects so expensive hulls are computed once."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def cube(self, d: int) -> Polytope:
        return self._get(
            ("cube", d),
            lambda: make_polytope(list(itertools.product((0, 1), repeat=d))),
        )

    def cube_spine(self, d: int):
        return self._get(
            ("cube-spine", d), lambda: spine(self.cube(d), [0, 2**d - 1])
        )

    def simplex(self, d: int) -> Polytope:
        def build():
            pts = [(0,) * d] + [tuple(int(j == i) for j in range(d)) for i in range(d)]
            return make_polytope(pts)

        return self._get(("simplex", d), build)

    def simplotope(self, n: int, s: int):
        return self._get(("simplotope", n, s), lambda: simplotope_with_spine(n, s))

    def everest(self, n: int, s: int) -> Polytope:
        return self._get(
            ("everest", n, s), lambda: everest_polytope(EverestParams(n, s))
        )

    def birkhoff(self, n: int):
        return self._get(("birkhoff", n), lambda: birkhoff_context(n))


def check_everest_volumes(ws: Workspace):
    """Hull-triangulation volume of E(n, s) equals the closed form."""
    details = []
    ok = True
    for n, s in EVEREST_GRID:
        want = EVEREST_VOLUMES[(n, s)]
        got = polytope_volume(ws.everest(n, s)).volume
        good = got == want == c_constant(EverestParams(n, s))
        ok = ok and good
        details.append(f"E({n},{s}): hull={got} formula={want}")
    return ok, "; ".join(details)


def check_everest_vertex_counts(ws: Workspace):
    """Family cardinalities and the vertex-count formula for 1 <= n,s <= 3."""
    details = []
    for n in (1, 2, 3):
        for s in (1, 2, 3):
            # vertex_families raises EverestError unless each family has its size.
            fam = vertex_families(EverestParams(n, s))
            details.append(f"({n},{s}):|V|={len(fam.everest)}")
    return True, " ".join(details)


def check_se_transformation(ws: Workspace):
    """Carrier matrix: image identity, kernel annihilation, kernel span."""
    ok = True
    details = []
    for n, s in EVEREST_GRID:
        image_ok, kills_ok, span_ok = se_checks(EverestParams(n, s)).values()
        good = image_ok and kills_ok and span_ok
        ok = ok and good
        details.append(
            f"({n},{s}): image={image_ok} kernel={kills_ok} span={span_ok}"
        )
    return ok, "; ".join(details)


def check_lifting_identity(ws: Workspace):
    """Squared volume law on cubes, simplotopes, and every enumerated spine."""
    ok = True
    details = []
    # (a) the four diagonal spines of the unit cube, both sides 9
    for idx in enumerate_spines(ws.cube(3), 2):
        rep = lifting_relation_report(spine(ws.cube(3), idx))
        good = rep.lhs == 9 and rep.rhs == 9
        ok = ok and good
    details.append("cube diagonals: both sides 9")
    # (b) 4-dimensional hypercube with a diagonal spine
    rep = lifting_relation_report(ws.cube_spine(4))
    ok = ok and rep.holds
    details.append(f"4-cube: lhs={rep.lhs} rhs={rep.rhs}")
    # (c) the simplotope one dimension up, spine = single-column family
    for n, s in EVEREST_GRID:
        p, sp = ws.simplotope(n + 1, s)
        rep = lifting_relation_report(sp)
        product_vol = Fraction(1, math.factorial(s) ** (n + 1))
        vol_ok = polytope_volume(p).volume == product_vol
        ok = ok and rep.holds and vol_ok
        details.append(f"S({n + 1},{s}): holds={rep.holds} vol={product_vol}")
    # (d) every spine of the square, the cube, and the 3-simplex
    for p in (ws.cube(2), ws.cube(3), ws.simplex(3)):
        for idx in enumerate_spines(p, 2):
            ok = ok and lifting_relation_report(spine(p, idx)).holds
    details.append("all enumerated spines hold")
    return ok, "; ".join(details)


def _distinct_stars(sm, orders):
    """Star triangulations of a shadow reached by different pulling orders."""
    stars = {}
    for order in orders:
        star = star_triangulation(list(sm.star_points), order)
        stars[star.simplices] = star
    return list(stars.values())


def _star_orders(n_points: int, seed: int, count: int):
    rng = random.Random(seed)
    orders = [None, list(reversed(range(n_points)))]
    while len(orders) < count:
        perm = list(range(n_points))
        rng.shuffle(perm)
        orders.append(perm)
    return orders


def check_fold_lift_bijection(ws: Workspace):
    """Round trips lift(fold(t)) = t and fold(lift(star)) = star, validated."""
    ok = True
    details = []
    total_distinct = 0
    instances = [
        ("cube3-diagonal", ws.cube_spine(3)),
        ("simplotope22-V0", ws.simplotope(2, 2)[1]),
        # Included to exercise the round trip on several distinct star
        # triangulations: two-dimensional shadows admit exactly one, the
        # 4-cube's three-dimensional shadow admits many.
        ("cube4-diagonal", ws.cube_spine(4)),
    ]
    for name, sp in instances:
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        back = lift(fold(t, sm), sm)
        round_one = back.simplices == t.simplices
        ok = ok and round_one
        stars = _distinct_stars(sm, _star_orders(len(sm.star_points), 7, 8))
        star_ok = True
        for star in stars:
            lifted = lift(star, sm)  # lift and fold validate on P and the shadow
            star_ok = star_ok and fold(lifted, sm).simplices == star.simplices
        ok = ok and star_ok
        total_distinct += len(stars)
        details.append(
            f"{name}: lift-fold={round_one} stars={len(stars)} fold-lift={star_ok}"
        )
    ok = ok and total_distinct >= 3
    details.append(f"distinct stars exercised: {total_distinct}")
    return ok, "; ".join(details)


def check_cube_spinal_counts(ws: Workspace):
    """Spinal triangulation of the d-cube: d! cells, all containing the diagonal."""
    ok = True
    details = []
    for d in (2, 3, 4):
        sp = ws.cube_spine(d)
        t = spinal_triangulation(sp)
        # spinal_triangulation raises on a cell without the spine.
        ok = ok and t.n_simplices == math.factorial(d)
        details.append(f"d={d}: {t.n_simplices} cells")
    return ok, "; ".join(details)


def check_birkhoff_identities(ws: Workspace):
    """Reconstruction and determinant identities for n in {3, 4, 5}, plus the
    block determinant identity on random rational matrices."""
    ok = True
    details = []
    for n in (3, 4, 5):
        # birkhoff_context raises unless B(Av) + a = v on every vertex.
        good = determinant_identities(ws.birkhoff(n)).all_ok
        ok = ok and good
        details.append(f"n={n}: ok={good}")
    rng = random.Random(2024)
    block_ok = True
    for _ in range(20):
        k = rng.randint(1, 3)
        t = rng.randint(2, 4)
        a = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            for _ in range(k)
        )
        block_ok = block_ok and det(block_matrix(a, t)) == (t + 1) ** k * det(a) ** t
    ok = ok and block_ok
    details.append(f"block identity on 20 random instances: {block_ok}")
    return ok, "; ".join(details)


def check_projected_b4_golden(ws: Workspace):
    """Projected Birkhoff polytope for n = 4 equals the published vertex set."""
    p = projected_birkhoff(ws.birkhoff(4))
    got = {tuple(int(x) for x in v) for v in p.vertices}
    want = set(GOLDEN_PROJECTED_B4)
    ok = got == want
    return ok, f"{len(got)} vertices, set match: {got == want}"


def check_birkhoff_volume_relation(ws: Workspace):
    """Volume relation at n = 3 with independently triangulated sides."""
    rep = verify_birkhoff_volume_relation(ws.birkhoff(3))
    ok = rep.all_ok  # vol_birkhoff is 9 vol_ab by its definition
    detail = (
        f"vol(truncated)={rep.vol_ab} vol(B3)={rep.vol_birkhoff} "
        f"vol(projected)={rep.vol_projected} relation={rep.relation_ok} "
        f"cross-check={rep.cross_check_ok}"
    )
    return ok, detail


def _random_polytope(rng: random.Random, dims=(2, 2, 3, 3, 3)) -> Polytope:
    while True:
        d = rng.choice(dims)
        count = rng.randint(d + 1, 10)
        pts = []
        seen = set()
        while len(pts) < count:
            q = tuple(rng.randint(-3, 3) for _ in range(d))
            if q not in seen:
                seen.add(q)
                pts.append(q)
        ext = extreme_points(pts)
        if len(ext) < d + 1:
            continue
        p = make_polytope(ext)
        if p.dim == d:
            return p


def check_validator_suite(ws: Workspace):
    """Random pulling triangulations validate; corrupted ones never do."""
    rng = random.Random(99)
    failures = []
    corrupted_passes = 0
    for i in range(VALIDATOR_SUITE_INSTANCES):
        p = _random_polytope(rng)
        order = list(range(p.n_vertices))
        rng.shuffle(order)
        t = pulling_triangulation(p, order)
        if not validate(t, p):
            failures.append(i)
            continue
        if t.n_simplices >= 2:
            dropped = Triangulation(t.points, t.simplices[1:], t.dim)
            if validate(dropped, p):
                corrupted_passes += 1
        duplicated = Triangulation(
            t.points, t.simplices + (t.simplices[0],), t.dim
        )
        if validate(duplicated, p):
            corrupted_passes += 1
    ok = not failures and corrupted_passes == 0
    return ok, (
        f"{VALIDATOR_SUITE_INSTANCES} random pulling triangulations validated, "
        f"{len(failures)} failures, {corrupted_passes} corrupted passes"
    )


CRITERIA = [
    ("everest-volume", check_everest_volumes),
    ("everest-vertex-counts", check_everest_vertex_counts),
    ("se-transformation", check_se_transformation),
    ("lifting-volume-identity", check_lifting_identity),
    ("fold-lift-bijection", check_fold_lift_bijection),
    ("cube-spinal-counts", check_cube_spinal_counts),
    ("birkhoff-identities", check_birkhoff_identities),
    ("projected-b4-golden", check_projected_b4_golden),
    ("birkhoff-volume-relation", check_birkhoff_volume_relation),
    ("validator-suite", check_validator_suite),
]


def run_selftest(only: str | None = None) -> int:
    valid = [(str(number), name) for number, (name, _) in enumerate(CRITERIA, start=1)]
    if only is not None and not any(only in pair for pair in valid):
        listing = ", ".join(f"{number} {name}" for number, name in valid)
        raise ValueError(f"unknown criterion {only!r}; the criteria are {listing}")
    ws = Workspace()
    failed = []
    for number, (name, fn) in enumerate(CRITERIA, start=1):
        if only is not None and only not in (str(number), name):
            continue
        start = time.perf_counter()
        ok, detail = fn(ws)
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        print(f"criterion {number:2d} {name:28s} {status}  ({elapsed:.1f}s)")
        if not ok:
            print(f"    {detail}")
            failed.append(name)
    if failed:
        print(f"{len(failed)} criterion(s) failed: {', '.join(failed)}")
        return 1
    return 0
