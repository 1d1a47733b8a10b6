import gc
import inspect
import itertools
import math
import random
import sys
import weakref
from fractions import Fraction

import pytest

import spinaltri.lp
import spinaltri.polytope
import spinaltri.triangulation
import spinaltri.volume
from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import DuplicatePoint, NotInConvexPosition, make_polytope
from spinaltri.spine import spine
from spinaltri.everest import simplotope_with_spine
from spinaltri.triangulation import (
    ShadowInternalError,
    Triangulation,
    TriangulationError,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    shadow_polytope,
    spinal_triangulation,
    star_triangulation,
    validate,
    validate_detailed,
)
from spinaltri.volume import lifting_relation_report
from star_oracle import lp_star_triangulation
from test_frame_oracle import fraction_projector
from test_star_oracle import box


def qv(*xs):
    return QVector(xs)


def cube(d):
    return make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=d)])


def simplex(d):
    pts = [QVector([0] * d)] + [
        QVector([1 if j == i else 0 for j in range(d)]) for i in range(d)
    ]
    return make_polytope(pts)


def hexagon_points():
    # Centrally symmetric hexagon with the origin strictly inside.
    return [qv(1, 0), qv(0, 1), qv(-1, 1), qv(-1, 0), qv(0, -1), qv(1, -1)]


class TestPulling:
    def test_segment(self):
        t = pulling_triangulation(make_polytope([qv(0), qv(1)]))
        assert t.simplices == ((0, 1),)

    def test_square_two_triangles_through_first_vertex(self):
        t = pulling_triangulation(cube(2))
        assert t.n_simplices == 2
        assert all(0 in c for c in t.simplices)
        shared = set(t.simplices[0]) & set(t.simplices[1])
        assert 0 in shared and len(shared) == 2

    def test_cube_diagonal_first_gives_staircase(self):
        p = cube(3)
        t = pulling_triangulation(p, [0, 7, 1, 2, 3, 4, 5, 6])
        assert t.n_simplices == 6
        assert all({0, 7} <= set(c) for c in t.simplices)

    def test_validates(self):
        for p in (cube(2), cube(3), simplex(3)):
            assert validate(pulling_triangulation(p), p)

    def test_bad_order_rejected(self):
        with pytest.raises(TriangulationError):
            pulling_triangulation(cube(2), [0, 1, 2])


class TestStar:
    def test_hexagon_fan(self):
        t = star_triangulation(hexagon_points() + [qv(0, 0)])
        assert t.n_simplices == 6
        assert all(6 in c for c in t.simplices)

    def test_square_with_origin_vertex(self):
        pts = [qv(0, 0), qv(1, 0), qv(1, 1), qv(0, 1)]
        t = star_triangulation(pts)
        assert t.n_simplices == 2
        assert all(0 in c for c in t.simplices)

    def test_square_with_origin_on_edge_midpoint(self):
        # Origin at the midpoint of the bottom edge of [-1,1] x [0,2]:
        # three triangles, using all four corners.
        pts = [qv(-1, 0), qv(1, 0), qv(1, 2), qv(-1, 2), qv(0, 0)]
        t = star_triangulation(pts)
        assert t.n_simplices == 3
        assert all(4 in c for c in t.simplices)
        assert set(itertools.chain.from_iterable(t.simplices)) == set(range(5))

    def test_missing_origin(self):
        with pytest.raises(TriangulationError):
            star_triangulation(hexagon_points())

    def test_non_extreme_point_rejected(self):
        pts = hexagon_points() + [qv(Fraction(1, 2), 0), qv(0, 0)]
        with pytest.raises(NotInConvexPosition):
            star_triangulation(pts)

    def test_rejected_point_named_by_input_index(self):
        # The origin comes first, so every other point's input index is one
        # more than its position among the non-origin points.
        pts = [qv(0, 0), qv(3, 0), qv(0, 3), qv(-3, -3), qv(0, 1)]
        with pytest.raises(NotInConvexPosition) as exc:
            star_triangulation(pts)
        assert exc.value.index == 4
        assert str(exc.value).startswith("point 4 lies in the convex hull")

    def test_duplicate_named_by_input_indices(self):
        pts = [qv(3, 0), qv(0, 0), qv(0, 3), qv(-3, -3), qv(0, 3)]
        with pytest.raises(DuplicatePoint) as exc:
            star_triangulation(pts)
        assert (exc.value.index, exc.value.first) == (4, 2)
        assert str(exc.value) == "point 4 duplicates point 2"

    def test_validates_against_hull(self):
        pts = hexagon_points() + [qv(0, 0)]
        t = star_triangulation(pts)
        hull = make_polytope(hexagon_points())  # the origin is not a vertex
        assert validate(t, hull)


class TestStarOneDoubleDescription:
    @pytest.mark.parametrize(
        "build,position",
        [
            (lambda: spine(cube(3), [0, 7]), "inside"),
            (lambda: spine(simplotope_with_spine(2, 2)[0], [0, 4]), "boundary"),
            (lambda: spine(simplex(3), [0, 1]), "outside"),
        ],
        ids=["inside", "boundary", "outside"],
    )
    def test_star_and_lift_run_one_dd_and_no_lp(self, monkeypatch, build, position):
        sp = build()
        sm = shadow(sp)
        hull = shadow_polytope(sm)
        zero = QVector.zero(sp.polytope.ambient_dim)
        on = [f.offset == 0 for f in hull.facets()]
        got = "outside" if zero in hull.vertices else "boundary" if any(on) else "inside"
        assert got == position
        dds, lps = [], []
        real_dd = spinaltri.polytope._supporting_hyperplanes
        real_lp = spinaltri.lp.lp_feasible

        def counting_dd(*args):
            dds.append(args)
            return real_dd(*args)

        def counting_lp(*args):
            lps.append(args)
            return real_lp(*args)

        monkeypatch.setattr(spinaltri.polytope, "_supporting_hyperplanes", counting_dd)
        monkeypatch.setattr(spinaltri.polytope, "lp_feasible", counting_lp)
        monkeypatch.setattr(spinaltri.lp, "lp_feasible", counting_lp)
        star = star_triangulation(list(sm.star_points))
        lifted = lift(star, sm)
        assert len(dds) == 1 and lps == []
        assert fold(lifted, sm).simplices == star.simplices

    @pytest.mark.parametrize(
        "pts,error,dd_count",
        [
            # A point in the hull of the others.
            ([qv(0, 0), qv(3, 0), qv(0, 3), qv(-3, -3), qv(0, 1)], "point 4 lies", 1),
            # A vertex of the others' hull that the origin swallows.
            ([qv(0, 0), qv(1, 0), qv(3, 1), qv(3, -1)], "point 1 lies", 1),
            # The origin of another dimension is refused before any hull.
            ([qv(1, 1), qv(-1, 1), qv(-1, -1), qv(1, -1), QVector([0, 0, 0])],
             "point of dim 3 against ambient dim 2", 0),
            ([qv(1, 1), qv(-1, 1), qv(0, 0, 0), qv(-1, -1), qv(1, -1), qv(0, 1)],
             "point of dim 3 against ambient dim 2", 0),
            # 31 points with the origin outside: the vertex cap counts the 30
            # others only, and the origin swallows point 30.
            ([qv(0, 0)] + [qv(t, t * t) for t in range(1, 30)] + [qv(1, 2)],
             "point 30 lies", 1),
        ],
        ids=["in-others", "swallowed", "origin-dim", "origin-dim-in-others", "cap"],
    )
    def test_rejected_input_runs_no_lp(self, monkeypatch, pts, error, dd_count):
        dds = []
        real_dd = spinaltri.polytope._supporting_hyperplanes

        def counting_dd(*args):
            dds.append(args)
            return real_dd(*args)

        def forbidden(*args):
            raise AssertionError("the former route ran")

        assert not hasattr(spinaltri.triangulation, "make_polytope")
        monkeypatch.setattr(spinaltri.polytope, "_supporting_hyperplanes", counting_dd)
        monkeypatch.setattr(spinaltri.polytope, "lp_feasible", forbidden)
        monkeypatch.setattr(spinaltri.lp, "lp_feasible", forbidden)
        monkeypatch.setattr(spinaltri.polytope, "make_polytope", forbidden)
        monkeypatch.setattr(spinaltri.polytope.Polytope, "contains", forbidden)
        with pytest.raises(ValueError, match=f"^{error}"):
            star_triangulation(pts)
        assert len(dds) == dd_count

    @pytest.mark.parametrize(
        "pts,error",
        [
            ([qv(3, 0), qv(0, 0), qv(0, 3), qv(-3, -3), qv(0, 3)], DuplicatePoint),
            ([qv(0, 0)] + [qv(t, t * t) for t in range(1, 32)], spinaltri.polytope.PolytopeError),
            ([qv(0, 0), qv(1, 0), QVector([0, 1, 0])], spinaltri.linalg.DimensionError),
        ],
        ids=["duplicate", "vertex-cap", "mixed-dimension"],
    )
    def test_input_checks_run_before_the_dd(self, monkeypatch, pts, error):
        def no_dd(*args):
            raise AssertionError("the double description ran")

        monkeypatch.setattr(spinaltri.polytope, "_supporting_hyperplanes", no_dd)
        with pytest.raises(error):
            star_triangulation(pts)

    def test_point_shadow_round_trip(self):
        # The whole vertex set of a simplex is a spine; its shadow is the
        # origin alone, whose one star is the point itself.
        sp = spine(simplex(3), range(4))
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        star = star_triangulation(list(sm.star_points))
        assert (star.simplices, star.dim) == (((0,),), 0)
        assert fold(t, sm) == star
        lifted = lift(star, sm)
        assert lifted.simplices == t.simplices == ((0, 1, 2, 3),)
        assert fold(lifted, sm) == star


class TestStarIsPulling:
    @pytest.mark.parametrize(
        "others",
        [
            box([(-1, 1)] * 3),
            box([(0, 2)] + [(-1, 1)] * 2),
            box([(0, 2)] * 2 + [(-1, 1)]),
            box([(0, 1)] * 3)[1:],
            box([(1, 2)] * 3)[1:],
        ],
        ids=["inside", "on-a-facet", "on-an-edge", "a-vertex", "outside"],
    )
    def test_every_star_is_one_pulling_call(self, monkeypatch, others):
        real = spinaltri.triangulation.pulling_triangulation
        orders = []

        def counting(p, order=None):
            orders.append(order)
            return real(p, order)

        monkeypatch.setattr(spinaltri.triangulation, "pulling_triangulation", counting)
        pts = others[:3] + [QVector.zero(3)] + others[3:]
        for order in (None, list(range(len(pts)))[::-1]):
            orders.clear()
            got = star_triangulation(pts, order)
            want = lp_star_triangulation(pts, order)
            assert len(orders) == 1 and orders[0][0] == 3
            assert (got.simplices, got.dim) == (want.simplices, want.dim)

    def test_no_facets_of_face_call_gets_the_top_face(self, monkeypatch):
        real = spinaltri.triangulation.facets_of_face
        faces = []

        def recording(face, masks):
            faces.append(face)
            return real(face, masks)

        monkeypatch.setattr(spinaltri.triangulation, "facets_of_face", recording)
        for p in (cube(3), make_polytope(hexagon_points())):
            faces.clear()
            pulling_triangulation(p, list(range(p.n_vertices))[::-1])
            assert faces and (1 << p.n_vertices) - 1 not in faces
        faces.clear()
        star_triangulation(box([(-1, 1)] * 3) + [QVector.zero(3)])
        assert faces and (1 << 9) - 1 not in faces


class TestSpinal:
    def test_cube_diagonal(self):
        t = spinal_triangulation(spine(cube(3), [0, 7]))
        assert t.n_simplices == 6
        assert all({0, 7} <= set(c) for c in t.simplices)

    def test_simplex_full_spine_is_itself(self):
        p = simplex(3)
        t = spinal_triangulation(spine(p, range(4)))
        assert t.simplices == ((0, 1, 2, 3),)

    def test_simplotope22_contains_spine(self):
        p, sp = simplotope_with_spine(2, 2)
        t = spinal_triangulation(sp)
        assert all(set(sp.indices) <= set(c) for c in t.simplices)
        assert validate(t, p)

    def test_dcube_has_factorial_cells(self):
        for d in (2, 3, 4):
            p = cube(d)
            sp = spine(p, [0, 2**d - 1])
            t = spinal_triangulation(sp)
            assert t.n_simplices == math.factorial(d)


class TestShadow:
    def test_cube_diagonal_shadow(self):
        sm = shadow(spine(cube(3), [0, 7]))
        assert sm.e == 2
        zeros = [img for img in sm.shadow_points if img.is_zero()]
        assert len(zeros) == 2
        nonzero = [img for img in sm.shadow_points if not img.is_zero()]
        assert len(nonzero) == 6
        assert len(set(v.entries for v in nonzero)) == 6
        hull = shadow_polytope(sm)
        assert hull.n_vertices == 6 and hull.dim == 2

    def test_projection_is_symmetric_idempotent(self):
        sm = shadow(spine(cube(3), [0, 7]))
        proj, images = fraction_projector(sm.spine)
        assert proj.transpose() == proj
        assert proj @ proj == proj
        assert sm.shadow_points == images

    @pytest.mark.parametrize("idx", [[0, 7], [0], [1, 6]])
    def test_projection_is_fraction_rows_equal_to_the_former_matrix(self, idx):
        sm = shadow(spine(cube(3), idx))
        got = sm.shadow_points
        assert all(type(x) is Fraction for q in got for x in q)
        assert got == fraction_projector(sm.spine)[1]

    def test_full_spine_shadow_is_origin(self):
        p = simplex(3)
        sm = shadow(spine(p, range(4)))
        assert sm.e == 0
        assert all(img.is_zero() for img in sm.shadow_points)

    def test_simplotope_shadow_matches_everest_polytope(self):
        from spinaltri.everest import EverestParams, everest_polytope

        p, sp = simplotope_with_spine(2, 2)
        sm = shadow(sp)
        hull = shadow_polytope(sm)
        # Shadow of S(2,2) along the single-column spine is a linear copy of
        # E(1,2): same vertex and facet counts.
        e12 = everest_polytope(EverestParams(1, 2))
        assert sm.e == 2
        assert hull.n_vertices == e12.n_vertices == 6
        assert len(hull.facets()) == len(e12.facets()) == 6


class TestShadowMemo:
    def test_same_map_on_every_call(self):
        sp = spine(cube(3), [0, 7])
        assert shadow(sp) is shadow(sp)
        assert shadow(sp).spine is sp

    def test_each_spine_object_has_its_own_map(self):
        p = cube(3)
        a, b = spine(p, [0, 7]), spine(p, [0, 7])
        assert a == b
        assert shadow(a) is not shadow(b)
        assert shadow(b).spine is b

    def test_law_fold_and_lift_project_once(self, monkeypatch):
        # Once P is built, law + fold + lift solve no LP: the shadow's
        # vertices come from the spine theorem.  The shadow polytope is built
        # once, by polytope.py, which owns its masks and point table, and
        # pulled once.
        p = cube(3)
        sp = spine(p, [0, 7])
        lps, built, pulled = [], [], []
        real_lp = spinaltri.lp.lp_feasible
        real_polytope = spinaltri.polytope.Polytope
        real_pull = pulling_triangulation

        def counting_lp(*args, **kwargs):
            lps.append(args)
            return real_lp(*args, **kwargs)

        def counting_polytope(*args, **kwargs):
            built.append(real_polytope(*args, **kwargs))
            return built[-1]

        def counting_pull(q, *args, **kwargs):
            pulled.append(q)
            return real_pull(q, *args, **kwargs)

        monkeypatch.setattr(spinaltri.lp, "lp_feasible", counting_lp)
        monkeypatch.setattr(spinaltri.polytope, "lp_feasible", counting_lp)
        monkeypatch.setattr(spinaltri.polytope, "Polytope", counting_polytope)
        monkeypatch.setattr(spinaltri.volume, "pulling_triangulation", counting_pull)
        monkeypatch.setattr(spinaltri.triangulation, "pulling_triangulation", counting_pull)
        assert lifting_relation_report(sp).holds
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        assert lift(fold(t, sm), sm).simplices == t.simplices
        assert lps == []
        assert len(built) == 1 and built[0] is shadow_polytope(sm)
        assert [q for q in pulled if q is not p] == [shadow_polytope(sm)]

    def test_memo_does_not_keep_the_polytope_alive(self):
        p = cube(3)
        ref = weakref.ref(p)
        sp = spine(p, [0, 7])
        sm = shadow(sp)
        assert lifting_relation_report(sp).holds
        t = spinal_triangulation(sp)
        assert lift(fold(t, sm), sm).simplices == t.simplices
        del p, sp, sm, t
        gc.collect()
        assert ref() is None


class TestFoldLift:
    def test_cube_fold_is_hexagon_fan(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        f = fold(t, sm)
        assert f.n_simplices == 6
        assert all(0 in c for c in f.simplices)

    def test_full_spine_folds_to_point(self):
        p = simplex(3)
        sp = spine(p, range(4))
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        f = fold(t, sm)
        assert f.simplices == ((0,),)
        assert lift(f, sm).simplices == t.simplices

    def test_square_diag_folds_to_two_segments(self):
        p, sp_ = simplotope_with_spine(2, 1)
        idx = sp_.indices
        sm = shadow(sp_)
        f = fold(spinal_triangulation(sp_), sm)
        assert f.n_simplices == 2
        assert f.dim == 1

    def test_round_trip_cube(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        assert lift(fold(t, sm), sm).simplices == t.simplices

    def test_fold_requires_spinal(self):
        p = cube(3)
        sp = spine(p, [0, 7])
        sm = shadow(sp)
        t = pulling_triangulation(p, [1, 2, 3, 4, 5, 6, 7, 0])
        assert any(not {0, 7} <= set(c) for c in t.simplices)
        with pytest.raises(TriangulationError):
            fold(t, sm)

    def test_lift_of_synthetic_star(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        star = star_triangulation(list(sm.star_points))
        lifted = lift(star, sm)
        assert all({0, 7} <= set(c) for c in lifted.simplices)
        assert validate(lifted, cube(3))
        assert fold(lifted, sm).simplices == star.simplices

    def test_fold_blames_an_input_that_is_no_triangulation(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        dropped = Triangulation(t.points, t.simplices[1:], t.dim)
        with pytest.raises(TriangulationError) as exc:
            fold(dropped, sm)
        assert str(exc.value) == (
            "cells are not a triangulation of P: "
            "cell volumes sum to 5/6, polytope volume is 1"
        )

    def test_fold_of_a_valid_input_validates_once(self, monkeypatch):
        # The input is validated only after its fold fails: a fold that
        # passes costs one validation, and a valid input whose fold fails
        # is the library's fault.
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        calls = []
        real = spinaltri.triangulation.validate_detailed

        def counting(tri, p):
            calls.append(p)
            return real(tri, p)

        monkeypatch.setattr(spinaltri.triangulation, "validate_detailed", counting)
        fold(t, sm)
        assert calls == [shadow_polytope(sm)]
        wrong = make_polytope([qv(0, 0, 0), qv(1, 0, 0), qv(0, 1, 0), qv(0, 0, 1)])
        monkeypatch.setattr(spinaltri.triangulation, "shadow_polytope", lambda sm: wrong)
        with pytest.raises(ShadowInternalError, match="^fold of a spinal triangulation"):
            fold(t, sm)

    def test_fold_refuses_a_repeated_cell(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        again = Triangulation(t.points, t.simplices + (t.simplices[0][::-1],), t.dim)
        assert again.n_simplices == 7
        with pytest.raises(TriangulationError) as exc:
            fold(again, sm)
        assert str(exc.value) == "cell [7, 3, 1, 0] is given twice"

    def test_lift_refuses_a_repeated_cell(self):
        sm = shadow(spine(cube(3), [0, 7]))
        star = star_triangulation(list(sm.star_points))
        again = Triangulation(star.points, star.simplices + (star.simplices[2],), star.dim)
        with pytest.raises(TriangulationError) as exc:
            lift(again, sm)
        assert str(exc.value) == "cell [0, 2, 3] is given twice"

    @pytest.mark.parametrize("dim", [7, 1, 3])
    def test_lift_refuses_another_dim(self, dim):
        sm = shadow(spine(cube(3), [0, 7]))
        star = star_triangulation(list(sm.star_points))
        assert star.dim == sm.e == 2
        with pytest.raises(TriangulationError) as exc:
            lift(Triangulation(star.points, star.simplices, dim), sm)
        assert str(exc.value) == f"dim {dim} is not the shadow's dimension 2"

    def test_lift_rejects_foreign_points(self):
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        bogus = Triangulation.make(
            [QVector.zero(3), qv(5, 5, 5)], [(0, 1)], 1
        )
        with pytest.raises(TriangulationError):
            lift(bogus, sm)


class TestRepeatedWork:
    """Fold, lift and star reuse per-shadow tables and skip unused work, and
    a cell is read through a table only after its indices are checked."""

    ORIGIN = "star cell must contain the origin exactly once"
    OTHER_TABLE = "star is not over the shadow's point table"

    @pytest.mark.parametrize(
        "cells",
        [
            # A cell without the origin, after a good cell.
            [(0, 1, 2), (1, 2, 6)],
            # A cell with the origin twice.
            [(0, 1, 2), (0, 0, 6)],
        ],
        ids=["no-origin", "two-origins"],
    )
    def test_lift_counts_the_origin_in_each_cell(self, cells):
        sm = shadow(spine(cube(3), [0, 7]))
        star = Triangulation.make(sm.star_points, cells, 2)
        with pytest.raises(TriangulationError) as exc:
            lift(star, sm)
        assert str(exc.value) == self.ORIGIN

    @pytest.mark.parametrize(
        "table",
        [
            # An unused point after the map's own.
            lambda pts: pts + (qv(5, 5, 5),),
            # The map's points in another order.
            lambda pts: pts[:1] + pts[:0:-1],
            # The last point replaced by one with no preimage.
            lambda pts: pts[:-1] + (qv(5, 5, 5),),
            # An origin of another dimension after the map's points.
            lambda pts: pts + (QVector.zero(2),),
        ],
        ids=["padded", "permuted", "foreign", "other-dim-origin"],
    )
    def test_lift_refuses_another_point_table(self, table):
        sm = shadow(spine(cube(3), [0, 7]))
        star = star_triangulation(list(sm.star_points))
        other = Triangulation(table(sm.star_points), star.simplices, star.dim)
        with pytest.raises(TriangulationError) as exc:
            lift(other, sm)
        assert str(exc.value) == self.OTHER_TABLE

    def test_lift_takes_the_map_points_by_value(self):
        sm = shadow(spine(cube(3), [0, 7]))
        star = star_triangulation(list(sm.star_points))
        copy = tuple(QVector(list(q)) for q in sm.star_points)
        assert all(a is not b for a, b in zip(copy, sm.star_points))
        assert lift(Triangulation(copy, star.simplices, star.dim), sm) == lift(star, sm)

    @pytest.mark.parametrize(
        "edit,message",
        [
            # Every 6 of the diagonal star read as -1, the last point.
            (
                lambda cells: [[-1 if i == 6 else i for i in c] for c in cells],
                "cell [-1, 0, 2]: index -1 is outside 0..6",
            ),
            (lambda cells: [(0, 1, 99)] + cells[1:], "cell [0, 1, 99]: index 99 is outside 0..6"),
        ],
        ids=["negative", "out-of-range"],
    )
    def test_lift_names_a_cell_with_a_missing_point(self, edit, message):
        sm = shadow(spine(cube(3), [0, 7]))
        star = star_triangulation(list(sm.star_points))
        bad = Triangulation.make(sm.star_points, edit(list(star.simplices)), star.dim)
        with pytest.raises(TriangulationError) as exc:
            lift(bad, sm)
        assert str(exc.value) == message

    def test_fold_names_a_cell_with_a_missing_point(self):
        p = cube(3)
        sm = shadow(spine(p, [0, 7]))
        t = Triangulation.make(p.vertices, [(0, 7, 8, 9)], 3)
        with pytest.raises(TriangulationError) as exc:
            fold(t, sm)
        assert str(exc.value) == "cell [0, 7, 8, 9]: index 8 is outside 0..7"

    @pytest.mark.parametrize(
        "verts,points,cells,reason",
        [
            # The unit square's triangulation, translated off the square.
            (
                [(0, 0), (1, 0), (0, 1), (1, 1)],
                [(5, 5), (6, 5), (5, 6), (6, 6)],
                ((0, 1, 3), (0, 2, 3)),
                "point 0 lies outside the polytope",
            ),
            # A square in the plane z = 0 against points at z = 1.
            (
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
                [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                ((0, 1, 3), (0, 2, 3)),
                "a point lies outside the affine hull of the polytope",
            ),
        ],
        ids=["beyond-a-facet", "off-the-hull"],
    )
    def test_rejected_twice_with_the_same_reason(self, verts, points, cells, reason):
        p = make_polytope([QVector(v) for v in verts])
        t = Triangulation(tuple(QVector(q) for q in points), cells, 2)
        assert validate_detailed(t, p) == (False, reason)
        assert validate_detailed(t, p) == (False, reason)
        # Other points then get their own table.
        good = Triangulation.make(tuple(QVector(v) for v in verts), cells, 2)
        assert validate_detailed(good, p) == (True, "ok")
        assert validate_detailed(t, p) == (False, reason)

    @staticmethod
    def count_placements(monkeypatch, names=("hull_ints", "facet_masks")):
        """The arguments of each call of the named functions of
        spinaltri.polytope, by name, from now on."""
        calls = {name: [] for name in names}

        def counting(name):
            real = getattr(spinaltri.polytope, name)

            def counted(*args):
                calls[name].append(args)
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(spinaltri.polytope, name, counting(name))
        return calls

    def test_folds_of_one_shadow_build_one_point_table(self, monkeypatch):
        # shadow() places the star points once, reading their facet bits off
        # P's masks, and the folds place none.
        import random

        calls = self.count_placements(monkeypatch)
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        assert {name: len(c) for name, c in calls.items()} == {
            "hull_ints": 1, "facet_masks": 0
        }
        rng = random.Random(19)
        for _ in range(24):
            order = list(range(len(sm.star_points)))
            rng.shuffle(order)
            star = star_triangulation(list(sm.star_points), order)
            assert fold(lift(star, sm), sm).simplices == star.simplices
        assert {name: len(c) for name, c in calls.items()} == {
            "hull_ints": 1, "facet_masks": 0
        }

    def test_validating_a_star_of_the_shadow_keeps_its_table(self, monkeypatch):
        # A star built on the map's own points tuple keeps that tuple, so
        # validating it against the shadow reads the table shadow() filled,
        # and neither it nor the folds around it place a point or run a
        # double description on the shadow.
        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        fr = sm.polytope.frame()
        calls = self.count_placements(
            monkeypatch, ("hull_ints", "facet_masks", "_supporting_hyperplanes")
        )
        folded = fold(t, sm)
        star = star_triangulation(sm.star_points)
        assert star.points is sm.star_points
        assert validate(star, sm.polytope)
        assert fold(t, sm).simplices == folded.simplices
        assert calls["hull_ints"] == calls["facet_masks"] == []
        # The one double description is the star's, on its own hull.
        (dd,) = calls["_supporting_hyperplanes"]
        assert dd[0] is not fr.icoords

    @pytest.mark.parametrize(
        "points",
        [
            [*itertools.product((0, 1), repeat=3), (Fraction(1, 2),) * 3],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(0, 0), (2, 0), (3, 2), (0, 2), (1, 1)],
            # 7 points, not all of them vertices; spines of up to 3 and 4 points
            [tuple(rng.randint(-3, 3) for _ in range(3)) for rng in [random.Random(0)] * 7],
            [tuple(rng.randint(-3, 3) for _ in range(4)) for rng in [random.Random(15)] * 7],
        ],
        ids=["cube3-centre", "simplex3", "quadrilateral-inner", "random3", "random4"],
    )
    def test_an_op_runs_two_double_descriptions(self, monkeypatch, points):
        # One for the extreme points and one for P's facets; each spine's
        # shadow reads its facets off P's masks and runs none.
        from spinaltri.polytope import extreme_points
        from spinaltri.spine import enumerate_spines

        dds = self.count_placements(monkeypatch, ("_supporting_hyperplanes",))
        p = make_polytope(extreme_points([QVector(q) for q in points]))
        t = pulling_triangulation(p)
        assert validate(t, p)
        spines = enumerate_spines(p, 1)
        for s in spines:
            sp = spine(p, s)
            assert lifting_relation_report(sp).holds
            sm = shadow(sp)
            spinal = spinal_triangulation(sp)
            assert lift(fold(spinal, sm), sm).simplices == spinal.simplices
        assert p.dim == len(points[0]) and any(len(s) > 1 for s in spines)
        assert len(dds["_supporting_hyperplanes"]) == 2

    def test_membership_queries_keep_the_table_of_the_folds(self, monkeypatch):
        # contains and the Birkhoff interior test place a list of one point,
        # which the shadow never keeps, so they leave the folds' table alone.
        from spinaltri.birkhoff import _strictly_inside

        sp = spine(cube(3), [0, 7])
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        folded = fold(t, sm)
        hull = shadow_polytope(sm)
        assert hull.contains(sm.star_points[1])
        assert not hull.contains(qv(2, -1, -1))  # beyond a facet
        assert not hull.contains(qv(1, 1, 1))  # off the affine hull
        assert _strictly_inside((0, 0, 0), hull)
        calls = []
        real = spinaltri.polytope.hull_ints

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spinaltri.polytope, "hull_ints", counted)
        assert fold(t, sm).simplices == folded.simplices
        assert calls == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: spine(cube(3), [0, 7]),
            lambda: spine(simplotope_with_spine(2, 2)[0], [0, 4]),
            lambda: spine(simplex(3), [0, 1]),
        ],
        ids=["inside", "boundary", "outside"],
    )
    def test_star_lifts_no_normal(self, monkeypatch, build):
        sm = shadow(build())
        hull = shadow_polytope(sm)
        hull.facets()

        def forbidden(*args):
            raise AssertionError("the star lifted a facet normal")

        monkeypatch.setattr(spinaltri.polytope, "_lift_normal", forbidden)
        star = star_triangulation(list(sm.star_points))
        assert validate(star, hull)


def _outcome(call):
    """A call's result, or its error as (type, message)."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


def _fresh_star(points, order=None):
    """star_triangulation as it runs with no memo; the memo is left empty."""
    spinaltri.triangulation._star_memo = None
    try:
        return _outcome(lambda: star_triangulation(points, order))
    finally:
        spinaltri.triangulation._star_memo = None


class TestSharedWork:
    """The stars of one shadow share one frame and one double description,
    and a point table keeps the determinants of the cells it has seen; every
    answer and every error is the one computed afresh."""

    def test_stars_of_one_shadow_run_one_dd_and_one_gram_adjugate(self, monkeypatch):
        sm = shadow(spine(cube(4), [0, 15]))
        dds, adjugates = [], []
        real_dd = spinaltri.polytope._supporting_hyperplanes
        real_adjugate = spinaltri.polytope.int_adjugate

        def counting_dd(*args):
            dds.append(args)
            return real_dd(*args)

        def counting_adjugate(rows):
            adjugates.append(sys._getframe(1).f_code.co_name)
            return real_adjugate(rows)

        monkeypatch.setattr(spinaltri.polytope, "_supporting_hyperplanes", counting_dd)
        monkeypatch.setattr(spinaltri.polytope, "int_adjugate", counting_adjugate)
        rng = random.Random(21)
        orders, stars = [], []
        for _ in range(24):
            order = list(range(len(sm.star_points)))
            rng.shuffle(order)
            orders.append(order)
            stars.append(star_triangulation(list(sm.star_points), order))
        # One frame, whose Gram matrix is the only frame adjugate, and one
        # double description, whose start cone is the only other one.
        assert len(dds) == 1
        assert adjugates == ["_build_frame", "_supporting_hyperplanes"]
        fr = spinaltri.triangulation._star_memo[1].frame()
        assert not fr.identity and fr.normal_map and fr.gram_det > 0
        monkeypatch.undo()
        assert len({t.simplices for t in stars}) > 1
        for order, star in zip(orders, stars):
            assert star == _fresh_star(list(sm.star_points), order)

    def test_equal_points_hit_and_changed_points_miss(self, monkeypatch):
        dds = []
        real_dd = spinaltri.polytope._supporting_hyperplanes

        def counting_dd(*args):
            dds.append(args)
            return real_dd(*args)

        monkeypatch.setattr(spinaltri.polytope, "_supporting_hyperplanes", counting_dd)
        pts = [qv(0, 0)] + hexagon_points()
        first = star_triangulation(pts)
        # Equal values in new objects share the double description.
        assert star_triangulation([QVector(q) for q in pts]) == first
        assert len(dds) == 1
        # The same list, changed after the call, misses.
        pts[1] = qv(2, 0)
        got = _outcome(lambda: star_triangulation(pts))
        assert len(dds) == 2
        assert got == _fresh_star(list(pts)) != first

    def test_a_value_hit_rekeys_the_memo(self, monkeypatch):
        # Two builds of one shadow: equal points in different objects.  The
        # first star on the second build matches by value, one comparison per
        # point; the memo then holds the new objects, so every later star on
        # them matches by identity and compares no point.
        old = shadow(spine(cube(4), [0, 15])).star_points
        new = shadow(spine(cube(4), [0, 15])).star_points
        assert old == new and all(a is not b for a, b in zip(old, new))
        orders = (None, list(range(len(old)))[::-1])
        stars = [star_triangulation(list(old), order) for order in orders]
        real_eq = QVector.__eq__
        compared = []

        def counting_eq(a, b):
            compared.append(a)
            return real_eq(a, b)

        monkeypatch.setattr(QVector, "__eq__", counting_eq)
        again = [star_triangulation(list(new), order) for order in orders * 3]
        monkeypatch.undo()
        assert len(compared) == len(new) == 15
        assert spinaltri.triangulation._star_memo[0] == tuple(new)
        assert all(a is b for a, b in zip(spinaltri.triangulation._star_memo[0], new))
        assert [t.simplices for t in again] == [t.simplices for t in stars] * 3

    @pytest.mark.parametrize(
        "bad",
        [
            [qv(0, 0)] + hexagon_points() + [qv(Fraction(1, 2), 0)],  # not extreme
            [qv(0, 0)] + hexagon_points() + [qv(1, 0)],  # a duplicate
            hexagon_points(),  # no origin
        ],
        ids=["in-hull", "duplicate", "no-origin"],
    )
    def test_a_rejected_input_is_never_kept(self, bad):
        good = [qv(0, 0)] + hexagon_points()
        want = _fresh_star(bad)
        assert isinstance(want, tuple) and issubclass(want[0], ValueError)
        first = star_triangulation(good)
        memo = spinaltri.triangulation._star_memo
        for _ in range(2):
            assert _outcome(lambda: star_triangulation(bad)) == want
        assert spinaltri.triangulation._star_memo is memo
        assert star_triangulation(good) == first
        # A bad order is refused before the memo is read.
        with pytest.raises(TriangulationError, match="order must be a permutation"):
            star_triangulation(good, [0, 1])

    def test_a_lowered_dimension_cap_is_read_on_every_call(self, monkeypatch):
        sm = shadow(spine(cube(3), [0, 7]))
        first = star_triangulation(list(sm.star_points))
        monkeypatch.setenv("SPINALTRI_MAX_DIM", "2")
        want = _fresh_star(list(sm.star_points))
        monkeypatch.delenv("SPINALTRI_MAX_DIM")
        assert star_triangulation(list(sm.star_points)) == first
        monkeypatch.setenv("SPINALTRI_MAX_DIM", "2")
        assert _outcome(lambda: star_triangulation(list(sm.star_points))) == want
        assert want == (
            spinaltri.polytope.PolytopeError,
            "ambient dimension 3 exceeds the desk-scale cap 2; set SPINALTRI_MAX_DIM to override",
        )

    @pytest.mark.parametrize(
        "cells,reason",
        [
            (None, "ok"),
            ("drop", "cell volumes sum to 5/6, polytope volume is 1"),
            ([(0, 1, 2, 3), (0, 1, 2, 4)], "cell (0, 1, 2, 3) is degenerate"),
        ],
        ids=["ok", "volume", "degenerate"],
    )
    def test_second_validation_of_the_same_cells_takes_no_determinant(
        self, monkeypatch, cells, reason
    ):
        p = cube(3)
        t = pulling_triangulation(p)
        if cells == "drop":
            cells = t.simplices[1:]
        if cells is not None:
            t = Triangulation.make(p.vertices, cells, 3)
        spinaltri.volume.polytope_relative_volume(p)  # its own cells' determinants
        dets = []
        real = spinaltri.volume.cell_det

        def counting(*args):
            dets.append(args)
            return real(*args)

        monkeypatch.setattr(spinaltri.volume, "cell_det", counting)
        first = validate_detailed(t, p)
        assert first == (reason == "ok", reason)
        assert dets
        dets.clear()
        assert validate_detailed(t, p) == first
        assert dets == []
        # A list of points is never kept, nor are its determinants.
        as_list = Triangulation(list(p.vertices), t.simplices, 3)
        assert validate_detailed(as_list, p) == first
        n = len(dets)
        assert n > 0
        assert validate_detailed(as_list, p) == first
        assert len(dets) == 2 * n

    def test_lifts_and_folds_of_one_shadow_share_their_determinants(self, monkeypatch):
        sm = shadow(spine(cube(4), [0, 15]))
        p, hull = sm.spine.polytope, shadow_polytope(sm)
        dets = []
        real = spinaltri.volume.cell_det

        def counting(icoords, cell):
            dets.append(cell)
            return real(icoords, cell)

        monkeypatch.setattr(spinaltri.volume, "cell_det", counting)
        rng = random.Random(19)
        lifted_cells, star_cells = set(), set()
        for _ in range(24):
            order = list(range(len(sm.star_points)))
            rng.shuffle(order)
            star = star_triangulation(list(sm.star_points), order)
            lifted = lift(star, sm)
            assert fold(lifted, sm).simplices == star.simplices
            lifted_cells.update(lifted.simplices)
            star_cells.update(star.simplices)
        # One determinant per distinct cell and table, besides the cells of
        # the pulling triangulations behind the two relative volumes.
        assert p._point_table[1][3].keys() == lifted_cells
        assert hull._point_table[1][3].keys() == star_cells
        relvol_cells = pulling_triangulation(p).n_simplices
        relvol_cells += pulling_triangulation(hull).n_simplices
        assert len(dets) == len(lifted_cells) + len(star_cells) + relvol_cells


class TestPerCellVolumeLaw:
    @staticmethod
    def _check_cells(p, sp):
        sm = shadow(sp)
        t = spinal_triangulation(sp)
        d = p.dim
        uset = set(sp.indices)
        vol_u_sq = gram_sq_volume(sp.points(), sp.n - 1)
        binom = math.comb(d, sp.n - 1)
        star_of = {g: k for k, g in enumerate(sm.lift_indices) if g >= 0}
        for cell in t.simplices:
            pts = [p.vertices[i] for i in cell]
            cell_sq = gram_sq_volume(pts, d)
            folded = sorted([0] + [star_of[i] for i in cell if i not in uset])
            fpts = [sm.star_points[i] for i in folded]
            fold_sq = gram_sq_volume(fpts, sm.e)
            assert binom**2 * cell_sq == vol_u_sq * fold_sq

    def test_fold_volume_factor_cube(self):
        # For each spinal cell and its fold: binom(d, n-1)^2 vol(cell)^2
        # equals vol(spine simplex)^2 times vol(folded cell)^2.
        self._check_cells(cube(3), spine(cube(3), [0, 7]))

    def test_fold_volume_factor_simplotope(self):
        p, sp = simplotope_with_spine(2, 2)
        self._check_cells(p, sp)


class TestValidate:
    def test_detects_dropped_cell(self):
        p = cube(3)
        t = pulling_triangulation(p)
        broken = Triangulation(t.points, t.simplices[1:], t.dim)
        ok, reason = validate_detailed(broken, p)
        assert not ok

    def test_detects_duplicate_cell(self):
        p = cube(3)
        t = pulling_triangulation(p)
        broken = Triangulation(t.points, t.simplices + (t.simplices[0],), t.dim)
        assert not validate(broken, p)

    def test_detects_overlap(self):
        # Two triangles both covering the square's center region.
        pts = [qv(0, 0), qv(1, 0), qv(1, 1), qv(0, 1)]
        p = make_polytope(pts)
        overlap = Triangulation(tuple(pts), ((0, 1, 2), (0, 1, 3), (0, 2, 3)), 2)
        assert not validate(overlap, p)

    def test_detects_nested_cell_by_volume(self):
        pts = [qv(0, 0), qv(4, 0), qv(0, 4), qv(1, 1), qv(2, 1), qv(1, 2)]
        p = make_polytope(pts[:3])
        nested = Triangulation(tuple(pts), ((0, 1, 2), (3, 4, 5)), 2)
        assert not validate(nested, p)

    def test_detects_volume_preserving_overlap_via_lp(self):
        # Two area-2 triangles overlapping inside an area-4 square: the
        # volume check passes and no facet plane of either separates them.
        # The ridge rule rejects them: the diagonal (0, 2) is an interior
        # ridge of one cell only.
        pts = [qv(0, 0), qv(2, 0), qv(2, 2), qv(0, 2)]
        p = make_polytope(pts)
        t = Triangulation(tuple(pts), ((0, 1, 2), (0, 1, 3)), 2)
        assert not validate(t, p)

    def test_detects_double_cover_by_ridge_sides(self):
        # Both triangulations of the area-2 diamond inside the area-4
        # square: every ridge is interior and in exactly two cells, and the
        # volumes sum to 4, so only the side test rejects the double cover.
        p = make_polytope([qv(0, 0), qv(2, 0), qv(0, 2), qv(2, 2)])
        pts = (qv(1, 0), qv(2, 1), qv(1, 2), qv(0, 1))
        t = Triangulation(pts, ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)), 2)
        assert validate_detailed(t, p) == (
            False,
            "the cells on ridge (1, 2) lie on the same side of it",
        )

    def test_names_the_first_same_side_ridge_after_relabelling(self):
        # The same double cover with two diamond points swapped.  Here the
        # apexes of the first ridges sit at sorted positions of different
        # parity, so a side rule without the (-1)^(k-j) factor names another
        # ridge; the ridges on the boundary of the diamond are all
        # same-sided, so only the reason tells the two rules apart.
        p = make_polytope([qv(0, 0), qv(2, 0), qv(0, 2), qv(2, 2)])
        pts = (qv(1, 0), qv(2, 1), qv(0, 1), qv(1, 2))
        t = Triangulation(pts, ((0, 1, 3), (0, 2, 3), (0, 1, 2), (1, 2, 3)), 2)
        assert validate_detailed(t, p) == (
            False,
            "the cells on ridge (1, 3) lie on the same side of it",
        )

    @pytest.mark.parametrize(
        "points,cells,outside",
        [
            # The unit square's triangulation, translated off the square.
            ([(5, 5), (6, 5), (5, 6), (6, 6)], ((0, 1, 3), (0, 2, 3)), 0),
            # One triangle of the square's area that sticks out of it.
            ([(0, 0), (2, 0), (0, 1)], ((0, 1, 2),), 1),
        ],
        ids=["translated-square", "long-triangle"],
    )
    def test_detects_points_outside_the_polytope(self, points, cells, outside):
        p = make_polytope([qv(0, 0), qv(1, 0), qv(0, 1), qv(1, 1)])
        t = Triangulation(tuple(QVector(q) for q in points), cells, 2)
        assert validate_detailed(t, p) == (
            False,
            f"point {outside} lies outside the polytope",
        )

    def test_detects_degenerate_cell(self):
        pts = [qv(0, 0), qv(1, 0), qv(1, 1), qv(0, 1)]
        p = make_polytope(pts)
        t = Triangulation(tuple(pts), ((0, 1, 2), (0, 1, 3)), 2)
        assert not validate(t, p)  # (0,1,3) is fine but (0,1,2),(0,1,3) miss area

    def test_accepts_pulling_any_order(self):
        import random

        p = cube(3)
        rng = random.Random(7)
        for _ in range(5):
            order = list(range(8))
            rng.shuffle(order)
            assert validate(pulling_triangulation(p, order), p)


HEXAGON = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
HEXAGON_FAN = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5))


class TestEveryReason:
    """One hand-made cell set for each reason validate_detailed gives, with
    the exact reason: a check that names another failure first fails here.
    Each case is (vertices of P, points or None for the vertices, cells,
    reason)."""

    CASES = [
        (
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
            [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
            ((0, 1, 3), (0, 2, 3)),
            "a point lies outside the affine hull of the polytope",
        ),
        (HEXAGON, None, (), "no maximal simplices"),
        (HEXAGON, None, ((0, 1, 1),), "cell (0, 1, 1) does not have 3 distinct vertices"),
        (HEXAGON, None, ((0, 1, 6),), "cell (0, 1, 6) references a missing point"),
        (HEXAGON, HEXAGON + [(0, 0)], ((0, 3, 6),), "cell (0, 3, 6) is degenerate"),
        (HEXAGON, None, ((0, 1, 2),), "cell volumes sum to 1/2, polytope volume is 3"),
        (HEXAGON, HEXAGON + [(0, 0)], HEXAGON_FAN, "some points are not vertices of any cell"),
        (
            HEXAGON,
            [(x + 5, y + 5) for x, y in HEXAGON],
            HEXAGON_FAN,
            "point 0 lies outside the polytope",
        ),
        # The last three are the first sets of the hexagon's triangles with
        # their reason, the 20 triangles taken in combinations order and the
        # sets in the order of their bitmasks.
        (
            HEXAGON,
            None,
            ((0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4)),
            "boundary ridge (0, 1) belongs to 2 cells",
        ),
        (
            HEXAGON,
            None,
            ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)),
            "interior ridge (0, 2) belongs to 1 cells",
        ),
        (
            HEXAGON,
            None,
            ((0, 1, 3), (0, 2, 3), (0, 4, 5), (1, 2, 3)),
            "the cells on ridge (0, 3) lie on the same side of it",
        ),
    ]

    @pytest.mark.parametrize(
        "verts,points,cells,reason",
        CASES,
        ids=[
            "off-the-hull",
            "no-cells",
            "repeated-vertex",
            "missing-point",
            "degenerate",
            "volume",
            "unused-point",
            "beyond-a-facet",
            "boundary-ridge",
            "interior-ridge",
            "same-side",
        ],
    )
    def test_names_this_failure(self, verts, points, cells, reason):
        p = make_polytope([QVector(v) for v in verts])
        pts = p.vertices if points is None else tuple(QVector(q) for q in points)
        assert validate_detailed(Triangulation(pts, cells, p.dim), p) == (False, reason)

    def test_a_point_gets_the_general_reasons(self):
        # A point is the 0-simplex: its one cell's empty ridge is a boundary
        # ridge, and every other cell set fails a general check.
        p = make_polytope([QVector((2, 3))])
        cases = [
            (p.vertices, ((0,),), (True, "ok")),
            (p.vertices, ((0,), (0,)), (False, "cell volumes sum to 2, polytope volume is 1")),
            (p.vertices * 2, ((0,),), (False, "some points are not vertices of any cell")),
            (
                p.vertices + (QVector((2, 4)),),
                ((0,),),
                (False, "a point lies outside the affine hull of the polytope"),
            ),
        ]
        for pts, cells, want in cases:
            assert validate_detailed(Triangulation(pts, cells, 0), p) == want

    def test_every_reason_has_a_case(self):
        assert inspect.getsource(validate_detailed).count("return False") == len(self.CASES)
