import itertools
import math
import random
from fractions import Fraction

import pytest

import spinaltri.triangulation
import spinaltri.volume
from spinaltri.linalg import QVector, gram_sq_volume
from spinaltri.polytope import make_polytope
from spinaltri.spine import enumerate_spines, spine
from spinaltri.everest import EverestParams, everest_polytope, simplotope_with_spine
from spinaltri.triangulation import (
    ShadowMap,
    fold,
    lift,
    pulling_triangulation,
    shadow,
    shadow_polytope,
    spinal_triangulation,
)
from spinaltri.volume import (
    LiftingRelationReport,
    lifting_relation_report,
    polytope_relative_volume,
    polytope_volume,
    triangulation_relative_volume,
)
from random_polytopes import random_polytope


def cube(d):
    return make_polytope([QVector(b) for b in itertools.product((0, 1), repeat=d)])


def simplex(d):
    pts = [QVector([0] * d)] + [
        QVector([1 if j == i else 0 for j in range(d)]) for i in range(d)
    ]
    return make_polytope(pts)


class TestPolytopeVolume:
    def test_unit_cube(self):
        rep = polytope_volume(cube(3))
        assert rep.volume == 1
        assert rep.sq_volume == 1
        assert rep.dim == 3

    def test_simplex(self):
        assert polytope_volume(simplex(3)).volume == Fraction(1, 6)

    def test_simplotope_32(self):
        p, _ = simplotope_with_spine(2, 2)
        assert polytope_volume(p).volume == Fraction(1, 4)

    def test_everest_12_is_three(self):
        rep = polytope_volume(everest_polytope(EverestParams(1, 2)))
        assert rep.volume == 3

    def test_point_convention(self):
        # A point is the 0-simplex: one 0-cell, relative volume 1, and no
        # rational volume, as for every lower-dimensional polytope.
        p = make_polytope([QVector([2, 3])])
        rep = polytope_volume(p)
        assert (rep.dim, rep.n_simplices, rep.sq_volume, rep.volume) == (0, 1, 1, None)
        assert polytope_relative_volume(p) == 1

    def test_lower_dimensional_square_root_free(self):
        # Unit segment along the diagonal of the plane: squared length 2.
        p = make_polytope([QVector([0, 0]), QVector([1, 1])])
        rep = polytope_volume(p)
        assert rep.volume is None
        assert rep.sq_volume == 2

    def test_order_invariance(self):
        rng = random.Random(42)
        dim4 = simplotope_with_spine(2, 2)[0]
        for p in (cube(3), simplex(3), everest_polytope(EverestParams(2, 1)), dim4):
            base = polytope_volume(p).volume
            for _ in range(5):
                order = list(range(p.n_vertices))
                rng.shuffle(order)
                assert polytope_volume(p, order).volume == base

    def test_additivity_on_triangulations(self):
        p = cube(3)
        t = pulling_triangulation(p, [5, 2, 7, 0, 1, 3, 4, 6])
        assert triangulation_relative_volume(p, t.simplices) == 1


class TestLiftingRelation:
    def test_cube_diagonal_both_sides_nine(self):
        rep = lifting_relation_report(spine(cube(3), [0, 7]))
        assert rep.lhs == 9
        assert rep.rhs == 9
        assert rep.holds

    def test_square_diagonal(self):
        p, sp = simplotope_with_spine(2, 1)
        rep = lifting_relation_report(sp)
        assert rep.binom == 2
        assert rep.vol_p_sq == 1
        assert rep.vol_spine_sq == 2
        assert rep.vol_shadow_sq == 2
        assert rep.holds

    def test_one_point_spine_holds(self):
        rep = lifting_relation_report(spine(cube(3), [0]))
        assert rep.binom == 1 and rep.vol_spine_sq == 1
        assert rep.lhs == rep.rhs == 1
        assert rep.holds

    @pytest.mark.parametrize("d", [2, 3])
    def test_all_enumerated_cube_spines(self, d):
        p = cube(d)
        for idx in enumerate_spines(p, 2):
            assert lifting_relation_report(spine(p, idx)).holds

    def test_all_simplex_spines(self):
        p = simplex(3)
        for idx in enumerate_spines(p, 2):
            assert lifting_relation_report(spine(p, idx)).holds

    def test_the_package_exports_the_report_in_place_of_the_flag(self):
        import spinaltri

        assert spinaltri.lifting_relation_report is lifting_relation_report
        assert not hasattr(spinaltri, "verify_lifting_relation")
        assert not hasattr(spinaltri, "everest_membership")

    def test_full_spine_of_simplex(self):
        # Shadow degenerates to the origin; its zero-dimensional volume is 1.
        rep = lifting_relation_report(spine(simplex(3), range(4)))
        assert rep.vol_shadow_sq == 1
        assert rep.holds


def lifting_relation_report_by_volumes(s):
    """Oracle: the former volume law, which took vol(P)^2 and vol(shadow)^2
    from fresh `polytope_volume` calls, vol(U)^2 from `gram_sq_volume` and
    the shadow from a fresh `ShadowMap`, never the one kept on the spine."""
    p = s.polytope
    d = p.dim
    vol_p_sq = polytope_volume(p).sq_volume
    vol_u_sq = gram_sq_volume(s.points(), s.n - 1)
    sm = ShadowMap(s)
    if sm.e == 0:
        vol_shadow_sq = Fraction(1)  # the shadow is a single point
    else:
        vol_shadow_sq = polytope_volume(shadow_polytope(sm)).sq_volume
    return LiftingRelationReport(
        math.comb(d, s.n - 1), vol_p_sq, vol_u_sq, vol_shadow_sq
    )


def skew_cube():
    """The 3-cube embedded in R^4 by a rational map, so that P and its
    shadows carry a Gram factor."""
    rows = [(1, 0, Fraction(1, 2)), (0, 2, 1), (Fraction(1, 3), 1, 0), (1, 1, 1)]
    return make_polytope(
        [
            QVector([sum(r * x for r, x in zip(row, b)) for row in rows])
            for b in itertools.product((0, 1), repeat=3)
        ]
    )


class TestVolumeLawOracle:
    def test_memoised_shadow_matches_a_fresh_map(self):
        rng = random.Random(5150)
        polys = [random_polytope(rng) for _ in range(25)] + [cube(4), skew_cube()]
        checked = 0
        for p in polys:
            for idx in enumerate_spines(p, 2):
                sp = spine(p, idx)
                assert lifting_relation_report(sp).holds
                sm = shadow(sp)
                t = spinal_triangulation(sp)
                assert lift(fold(t, sm), sm).simplices == t.simplices
                assert shadow(sp) is sm
                fresh = ShadowMap(sp)
                assert fresh is not sm
                for name in ("shadow_points", "star_points", "lift_indices", "e", "spine_sq_volume"):
                    assert getattr(sm, name) == getattr(fresh, name), (p, idx, name)
                got, want = shadow_polytope(sm), shadow_polytope(fresh)
                assert got.vertices == want.vertices
                if sm.e:  # a single point has no facets
                    assert got.facets() == want.facets()
                checked += 1
        assert checked > 100

    def test_fields_on_every_spine(self):
        rng = random.Random(5150)
        polys = [random_polytope(rng) for _ in range(25)]
        polys += [simplotope_with_spine(2, 2)[0], cube(4), skew_cube()]
        checked = 0
        for p in polys:
            for idx in enumerate_spines(p, 2):
                got = lifting_relation_report(spine(p, idx))
                want = lifting_relation_report_by_volumes(spine(p, idx))
                assert got == want, (p, idx)
                assert got.holds
                checked += 1
        assert checked > 100

    def test_no_pulling_of_p_once_its_volume_is_known(self, monkeypatch):
        p = cube(3)
        polytope_relative_volume(p)
        pulled = []
        real = pulling_triangulation

        def counting(q, *args, **kwargs):
            pulled.append(q)
            return real(q, *args, **kwargs)

        monkeypatch.setattr(spinaltri.volume, "pulling_triangulation", counting)
        monkeypatch.setattr(spinaltri.triangulation, "pulling_triangulation", counting)
        spines = enumerate_spines(p, 2)
        assert spines
        for idx in spines:
            assert lifting_relation_report(spine(p, idx)).holds
        assert pulled, "the shadows are still triangulated"
        assert not any(q is p for q in pulled)
