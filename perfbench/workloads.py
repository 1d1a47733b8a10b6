"""Seeded inputs, operations and expected answers of the benchmark workloads.

An op is one independently checked answer: a callable into the public API
of `spinaltri` and the exact value it must return.  Every op builds its
`Polytope` objects from raw coordinates, so no facet cache survives from one
op to the next, just as in a CLI call.

The generators and the anchors (closed forms, published vertex sets and
volumes) are the benchmark's own, so that the inputs of a seed and the
expected answers stay fixed when the library's internals change.  Library
functions are looked up through the module objects at call time (`st.x`,
`cli.main`, `volume.x`) so that `tracer.Tracer` can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import spinaltri as st
from spinaltri import cli, volume

# The twenty published vertices of the projected Birkhoff polytope for
# n = 4, each read as a 2 x 3 matrix with rows concatenated.  Its volume is
# 22/45 over 220 pulling cells, and 6! * 22/45 = 352 is the normalised volume
# of B4 computed by Beck and Pixton.
PROJECTED_B4_VERTICES = frozenset(
    [
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
)
PROJECTED_B4_VOLUME = Fraction(22, 45)
PROJECTED_B4_CELLS = 220
B4_NORMALISED_VOLUME = 352

STAR_ORDERS = 24  # 2 fixed pulling orders plus 22 drawn from the seed
# random-small draws a fixed number of instances for each class, so that a
# seed changes the coordinates but not the mix of sizes and shapes, which
# sets most of the work of a pass.  A polygon's work is set by its number of
# vertices (triangles have 4 spines, quadrilaterals 2, larger polygons none),
# so planar instances are classed by hull vertices; spatial ones by points.
# The 192 cheap planar ops are more than half of the 304, and the quotas put
# the median op in a dense stretch of planar latencies (quadrilaterals and
# hexagons), away from the gaps between latency clusters, where a seed's
# draw would move it.  Within a class the work still varies with the draw
# (by about 5 % per pass of 152 instances); 304 halve that variance.
PLANAR_BY_VERTICES = {3: 16, 4: 48, 5: 64, 6: 64}
SPATIAL_BY_POINTS = {n: 16 for n in range(4, 11)}


@dataclass(frozen=True)
class Op:
    name: str
    fn: Callable[[], object]
    expected: object


# --- the benchmark's own generators and closed forms -------------------------


def everest_closed_form(n: int, s: int) -> Fraction:
    """vol E(n, s) = ((n+1)s)! / ((ns)! (s!)^(n+1))."""
    f = math.factorial
    return Fraction(f((n + 1) * s), f(n * s) * f(s) ** (n + 1))


def cube(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=d))


def simplotope(n: int, s: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Vertices of the product of n simplices conv{0, -e_1, ..., -e_s} and
    the indices of its single-column spine (all rows equal)."""
    rows = [tuple(-1 if t == j - 1 else 0 for t in range(s)) for j in range(s + 1)]
    verts, spine_idx = [], []
    for k, js in enumerate(itertools.product(range(s + 1), repeat=n)):
        verts.append(sum((rows[j] for j in js), ()))
        if len(set(js)) == 1:
            spine_idx.append(k)
    return verts, tuple(spine_idx)


def affine_rank(points) -> int:
    """Dimension of the affine hull of integer points (fraction-free)."""
    rows = [[a - b for a, b in zip(q, points[0])] for q in points[1:]]
    rank = 0
    cols = len(points[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [p[c] * a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


def planar_hull_vertices(points) -> int:
    """Number of vertices of the convex hull of integer points in the plane
    (monotone chain; points inside an edge are not vertices)."""
    pts = sorted(set(points))

    def chain(seq):
        out: list[tuple[int, ...]] = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return len(chain(pts)) + len(chain(reversed(pts))) - 2


def random_instance(
    rng: random.Random, d: int, count: int, accept: Callable[[list], bool]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """`count` distinct integer points in [-3, 3]^d that `accept` takes, and
    a pulling order over them."""
    while True:
        pts: list[tuple[int, ...]] = []
        while len(pts) < count:
            q = tuple(rng.randint(-3, 3) for _ in range(d))
            if q not in pts:
                pts.append(q)
        if accept(pts):
            order = list(range(count))
            rng.shuffle(order)
            return pts, order


def star_orders(rng: random.Random, n_points: int) -> list[list[int] | None]:
    orders: list[list[int] | None] = [None, list(reversed(range(n_points)))]
    while len(orders) < STAR_ORDERS:
        perm = list(range(n_points))
        rng.shuffle(perm)
        orders.append(perm)
    return orders


def _strings(points) -> list[list[str]]:
    return [[str(x) for x in q] for q in points]


def _write_json(path: Path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# --- hull-large ---------------------------------------------------------------


def _projected_b4():
    p = st.projected_birkhoff(st.birkhoff_context(4))
    vertices = frozenset(tuple(int(x) for x in v) for v in p.vertices)
    p.facets()
    rep = st.polytope_volume(p)
    return vertices, rep.volume, rep.n_simplices, 720 * rep.volume


def _b5_identities():
    rep = st.determinant_identities(st.birkhoff_context(5))
    return rep.det_btb, rep.det_c_abs, rep.det_j, rep.block_ok


def hull_large(seed: int, workdir: Path) -> list[Op]:
    # The seed is unused: these are fixed anchor instances.
    e22 = st.EverestParams(2, 2)
    ops = [
        Op(
            "projected-B4",
            _projected_b4,
            (
                PROJECTED_B4_VERTICES,
                PROJECTED_B4_VOLUME,
                PROJECTED_B4_CELLS,
                B4_NORMALISED_VOLUME,
            ),
        ),
        Op("E(2,2)-hull", lambda: st.everest_volume(e22, "hull"), everest_closed_form(2, 2)),
        Op(
            "E(2,2)-lifting",
            lambda: st.everest_volume(e22, "lifting"),
            everest_closed_form(2, 2),
        ),
        Op("B5-determinants", _b5_identities, (Fraction(5) ** 8, 1, 5, True)),
    ]
    _write_json(
        workdir / "inputs.json",
        {"workload": "hull-large", "ops": [op.name for op in ops]},
    )
    return ops


# --- foldlift-mid -------------------------------------------------------------


def _law(coords, idx):
    rep = volume.lifting_relation_report(st.spine(st.make_polytope(coords), idx))
    return rep.lhs, rep.rhs


def _round_trip(coords, idx):
    sp = st.spine(st.make_polytope(coords), idx)
    sm = st.shadow(sp)
    t = st.spinal_triangulation(sp)
    back = st.lift(st.fold(t, sm), sm)
    return back.simplices == t.simplices, t.n_simplices


def _stars(coords, idx, orders):
    sp = st.spine(st.make_polytope(coords), idx)
    sm = st.shadow(sp)
    # Every star is lifted, repeats included, so that the work of the op does
    # not depend on how many of the seeded orders give distinct stars.
    for order in orders:
        star = st.star_triangulation(list(sm.star_points), order)
        lifted = st.lift(star, sm)  # validates the lifted triangulation
        if st.fold(lifted, sm).simplices != star.simplices:
            return False
    return True


def _cli_fold_lift(path: Path, star_path: Path, coords, idx):
    spine_arg = ",".join(map(str, idx))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc_fold = cli.main(["fold", str(path), "--set", spine_arg])
    folded = json.loads(out.getvalue())
    _write_json(star_path, {"dim": folded["dim"], "simplices": folded["simplices"]})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc_lift = cli.main(["lift", str(path), "--set", spine_arg, "--star", str(star_path)])
    lifted = [tuple(c) for c in json.loads(out.getvalue())["simplices"]]
    library = st.spinal_triangulation(st.spine(st.make_polytope(coords), idx))
    return rc_fold, rc_lift, lifted == list(library.simplices), len(lifted)


def foldlift_mid(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    instances = []
    for d in (3, 4):
        # d-cube with its main diagonal: vol 1, binom(d, 1)^2 vol^2 = d^2.
        instances.append((f"cube{d}", cube(d), (0, 2**d - 1), Fraction(d * d), math.factorial(d)))
    for n, s in ((2, 2), (3, 1)):
        coords, idx = simplotope(n, s)
        vol = Fraction(1, math.factorial(s) ** n)
        lhs = math.comb(n * s, s) ** 2 * vol * vol
        cells = math.factorial(n * s) // math.factorial(s) ** n  # unimodular
        instances.append((f"S({n},{s})", coords, idx, lhs, cells))

    ops = []
    orders_doc = {}
    for name, coords, idx, lhs, cells in instances:
        orders = star_orders(rng, len(coords) - len(idx) + 1)
        orders_doc[name] = orders
        ops.append(Op(f"{name}-law", lambda c=coords, i=idx: _law(c, i), (lhs, lhs)))
        ops.append(
            Op(f"{name}-round-trip", lambda c=coords, i=idx: _round_trip(c, i), (True, cells))
        )
        ops.append(
            Op(f"{name}-stars", lambda c=coords, i=idx, o=orders: _stars(c, i, o), True)
        )
    for n, s in ((1, 2), (2, 1), (1, 3)):
        params = st.EverestParams(n, s)
        ops.append(
            Op(
                f"E({n},{s})-lifting",
                lambda p=params: st.everest_volume(p, "lifting"),
                everest_closed_form(n, s),
            )
        )

    cube4 = cube(4)
    path = workdir / "cube4.json"
    _write_json(path, {"ambient_dim": 4, "vertices": _strings(cube4)})
    ops.append(
        Op(
            "cli-fold-lift-cube4",
            lambda: _cli_fold_lift(path, workdir / "star.json", cube4, (0, 15)),
            (0, 0, True, math.factorial(4)),
        )
    )
    _write_json(
        workdir / "inputs.json",
        {
            "workload": "foldlift-mid",
            "seed": seed,
            "instances": {n: {"vertices": _strings(c), "spine": list(i)} for n, c, i, _, _ in instances},
            "star_orders": orders_doc,
        },
    )
    return ops


# --- random-small -------------------------------------------------------------


def _random_small_op(pts, raw_order):
    p = st.make_polytope(st.extreme_points(pts))
    local = {v.entries: k for k, v in enumerate(p.vertices)}
    order = [local[pts[i]] for i in raw_order if pts[i] in local]
    t = st.pulling_triangulation(p, order)
    accepted = st.validate(t, p)
    dropped = st.Triangulation(t.points, t.simplices[1:], t.dim)
    dropped_accepted = st.validate(dropped, p)
    laws = trips = True
    for idx in st.enumerate_spines(p, 2):
        sp = st.spine(p, idx)
        laws = laws and volume.lifting_relation_report(sp).holds
        spinal = st.spinal_triangulation(sp)
        sm = st.shadow(sp)
        trips = trips and st.lift(st.fold(spinal, sm), sm).simplices == spinal.simplices
    return p.dim, accepted, dropped_accepted, laws, trips


def random_small(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    instances = []
    for vertices, repeats in PLANAR_BY_VERTICES.items():
        for _ in range(repeats):
            count = rng.randint(vertices, min(10, vertices + 4))
            pts, order = random_instance(
                rng, 2, count, lambda pts: planar_hull_vertices(pts) == vertices
            )
            instances.append((2, pts, order))
    for count, repeats in SPATIAL_BY_POINTS.items():
        for _ in range(repeats):
            pts, order = random_instance(rng, 3, count, lambda pts: affine_rank(pts) == 3)
            instances.append((3, pts, order))
    ops = [
        Op(
            f"random-{k}",
            lambda pts=pts, order=order: _random_small_op(pts, order),
            (d, True, False, True, True),
        )
        for k, (d, pts, order) in enumerate(instances)
    ]
    _write_json(
        workdir / "inputs.json",
        {
            "workload": "random-small",
            "seed": seed,
            "instances": [
                {"dim": d, "points": _strings(pts), "order": order}
                for d, pts, order in instances
            ],
        },
    )
    return ops


WORKLOADS = {
    "hull-large": hull_large,
    "foldlift-mid": foldlift_mid,
    "random-small": random_small,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the inputs of a workload from its seed, write them to
    workdir/inputs.json and return its ops."""
    return WORKLOADS[name](seed, workdir)
