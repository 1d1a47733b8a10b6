import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaltri.birkhoff import (
    birkhoff_context, projected_birkhoff, verify_birkhoff_volume_relation
)
from spinaltri.everest import EverestParams, everest_volume
from spinaltri.io import load_polytope
from spinaltri.linalg import QVector
from spinaltri.polytope import (
    DuplicatePoint,
    NotInConvexPosition,
    extreme_points,
    make_polytope,
)
from linalg_oracle import Vec
from lp_oracle import fraction_in_convex_hull


def qv(*xs):
    return QVector(xs)


def cube_vertices(d):
    return [QVector(bits) for bits in itertools.product((0, 1), repeat=d)]


def permutation_matrix_vectors(n):
    vecs = []
    for perm in itertools.permutations(range(n)):
        entries = [0] * (n * n)
        for i, j in enumerate(perm):
            entries[i * n + j] = 1
        vecs.append(QVector(entries))
    return vecs


class TestMakePolytope:
    def test_unit_square(self):
        p = make_polytope(cube_vertices(2))
        assert p.dim == 2
        assert p.n_vertices == 4

    def test_center_point_rejected(self):
        pts = cube_vertices(2) + [qv(Fraction(1, 2), Fraction(1, 2))]
        with pytest.raises(NotInConvexPosition) as exc:
            make_polytope(pts)
        assert exc.value.index == 4

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicatePoint):
            make_polytope([qv(0, 0), qv(1, 0), qv(0, 0)])

    def test_birkhoff_s4_is_nine_dimensional(self):
        p = make_polytope(permutation_matrix_vectors(4))
        assert p.n_vertices == 24
        assert p.ambient_dim == 16
        assert p.dim == 9

    def test_ambient_dim_guard_and_env_override(self, monkeypatch):
        from spinaltri.polytope import PolytopeError

        pts = [QVector([0] * 17), QVector([1] + [0] * 16)]
        monkeypatch.delenv("SPINALTRI_MAX_DIM", raising=False)
        with pytest.raises(PolytopeError):
            make_polytope(pts)
        monkeypatch.setenv("SPINALTRI_MAX_DIM", "20")
        assert make_polytope(pts).dim == 1

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_max_dim_env_is_rejected(self, monkeypatch, raw):
        from spinaltri.polytope import PolytopeError, max_ambient_dim

        monkeypatch.setenv("SPINALTRI_MAX_DIM", raw)
        message = f"SPINALTRI_MAX_DIM is '{raw}', not a positive integer"
        with pytest.raises(PolytopeError) as exc:
            max_ambient_dim()
        assert str(exc.value) == message
        with pytest.raises(PolytopeError) as exc:
            make_polytope([QVector([0]), QVector([1])])
        assert str(exc.value) == message

    def test_vertex_count_guard(self):
        from spinaltri.polytope import PolytopeError

        pts = [QVector([i]) for i in range(5)]
        with pytest.raises(PolytopeError):
            make_polytope(pts, max_vertices=4)


class TestFacets:
    def test_unit_cube(self):
        p = make_polytope(cube_vertices(3))
        fs = p.facets()
        assert len(fs) == 6
        assert all(len(f.incident) == 4 for f in fs)

    def test_segment_has_two_facets(self):
        p = make_polytope([qv(-1), qv(1)])
        fs = p.facets()
        assert len(fs) == 2
        assert sorted(f.incident for f in fs) == [(0,), (1,)]

    def test_point_degenerate(self):
        # A point is its own affine hull: no inequality defines it.
        p = make_polytope([qv(3, 4)])
        assert p.facets() == []
        assert p.incidence_masks() == []
        assert p.contains(qv(3, 4))
        assert not p.contains(qv(3, 5)) and not p.contains(qv(Fraction(7, 2), 4))

    def test_lower_dimensional_triangle_in_r3(self):
        # A triangle embedded in the plane z = 1.
        p = make_polytope([qv(0, 0, 1), qv(1, 0, 1), qv(0, 1, 1)])
        assert p.dim == 2
        fs = p.facets()
        assert len(fs) == 3
        assert all(len(f.incident) == 2 for f in fs)

    def test_facet_certificates(self):
        p = make_polytope(cube_vertices(3))
        for f in p.facets():
            for i, v in enumerate(p.vertices):
                side = Vec(f.normal).dot(v)
                if i in f.incident:
                    assert side == f.offset
                else:
                    assert side < f.offset

    def test_every_vertex_on_at_least_dim_facets(self):
        for pts in (cube_vertices(3), cube_vertices(2)):
            p = make_polytope(pts)
            fs = p.facets()
            for i in range(p.n_vertices):
                assert sum(1 for f in fs if i in f.incident) >= p.dim

    def test_order_independence(self):
        pts = cube_vertices(3)
        p1 = make_polytope(pts)
        p2 = make_polytope(list(reversed(pts)))
        canon1 = {(f.normal.entries, f.offset) for f in p1.facets()}
        canon2 = {(f.normal.entries, f.offset) for f in p2.facets()}
        assert canon1 == canon2

    def test_five_cube(self):
        p = make_polytope(cube_vertices(5), max_vertices=32)
        fs = p.facets()
        assert len(fs) == 10
        assert all(len(f.incident) == 16 for f in fs)

    def test_octahedron(self):
        pts = [qv(*p) for p in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]]
        p = make_polytope(pts)
        assert len(p.facets()) == 8


class TestContains:
    def test_cube_center(self):
        p = make_polytope(cube_vertices(3))
        assert p.contains(qv(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))

    def test_cube_outside(self):
        p = make_polytope(cube_vertices(3))
        assert not p.contains(qv(2, 0, 0))

    def test_boundary(self):
        p = make_polytope(cube_vertices(2))
        assert p.contains(qv(Fraction(1, 2), 0))

    @given(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=7),
            min_size=3,
            max_size=3,
        )
    )
    def test_halfspace_agreement_on_random_rational_points(self, coords):
        # contains() reads the facets, so the general LP oracle on
        # convex-combination weights is the independent side.
        p = make_polytope(cube_vertices(3))
        x = QVector(coords)
        assert p.contains(x) == fraction_in_convex_hull(x, p.vertices)

    @pytest.mark.parametrize(
        "x,inside",
        [((1, 1), True), ((2, 2), True), ((1, 0), False), ((3, 3), False)],
    )
    def test_lower_dimensional(self, x, inside):
        p = make_polytope([qv(0, 0), qv(2, 2)])
        assert p.contains(qv(*x)) == inside == fraction_in_convex_hull(qv(*x), p.vertices)

    def test_single_vertex(self):
        p = make_polytope([qv(1, 2)])
        assert p.contains(qv(1, 2))
        assert not p.contains(qv(1, 3))


class TestExtremePoints:
    def test_square_plus_center(self):
        pts = cube_vertices(2) + [qv(Fraction(1, 2), Fraction(1, 2))]
        assert extreme_points(pts) == cube_vertices(2)

    def test_single_point(self):
        assert extreme_points([qv(1, 2)]) == [qv(1, 2)]

    def test_duplicates_collapsed(self):
        pts = [qv(0, 0), qv(1, 0), qv(0, 0), qv(0, 1), qv(1, 1)]
        assert len(extreme_points(pts)) == 4

    def test_collinear_midpoint_dropped(self):
        pts = [qv(0), qv(2), qv(1)]
        assert extreme_points(pts) == [qv(0), qv(2)]

    @pytest.mark.parametrize(
        "raw", [[(0, 0), (1, 0), (0, 1, 5)], [(0, 1, 5), (0, 0), (1, 0)]]
    )
    def test_mixed_dimension_rejected_before_any_lp(self, raw, monkeypatch):
        from spinaltri import polytope
        from spinaltri.linalg import DimensionError

        def no_lp(constraints):
            raise AssertionError("an LP was built")

        def no_frame(ivertices, vscale, ambient_dim):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(polytope, "lp_feasible", no_lp)
        monkeypatch.setattr(polytope, "_build_frame", no_frame)
        for build in (extreme_points, make_polytope, polytope._vertex_polytope):
            with pytest.raises(DimensionError, match="points of mixed dimension"):
                build([QVector(t) for t in raw])

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=12))
    def test_extreme_points_are_in_convex_position(self, raw):
        pts = [QVector(t) for t in raw]
        ext = extreme_points(pts)
        # Re-validating through the strict constructor must succeed.
        p = make_polytope(ext)
        assert p.n_vertices == len(ext)


GOLDEN_CUBE3 = Path(__file__).resolve().parent / "golden" / "inputs" / "cube3.json"


# Label -> (polytopes built, double descriptions run, the call that builds
# them).
LIBRARY_BUILDS = {
    "everest-hull": (1, 1, lambda: everest_volume(EverestParams(2, 2), "hull")),
    "everest-lifting": (1, 1, lambda: everest_volume(EverestParams(2, 2), "lifting")),
    "projected-b4": (1, 1, lambda: projected_birkhoff(birkhoff_context(4))),
    # truncated, projected, repositioned and the shadow of the last, whose
    # facet masks come from the repositioned polytope's with no double
    # description
    "b3-volume-relation": (
        4, 3, lambda: verify_birkhoff_volume_relation(birkhoff_context(3))
    ),
    "polytope-file": (1, 1, lambda: load_polytope(GOLDEN_CUBE3).facets()),
}


@pytest.mark.parametrize("label", LIBRARY_BUILDS)
def test_library_constructors_read_convex_position_off_their_facets(label, monkeypatch):
    """The library builds its polytopes with no LP, and each one runs the
    double description once and keeps it, for the convex-position check and
    its facets, but a spine's shadow, which runs none."""
    from spinaltri import polytope

    built, ran, run = LIBRARY_BUILDS[label]

    def no_lp(constraints):
        raise AssertionError("an LP was built")

    polytopes, dds = [], []
    real_init, real_dd = polytope.Polytope.__init__, polytope._supporting_hyperplanes

    def counting_init(self, *args):
        polytopes.append(self)
        real_init(self, *args)

    def counting_dd(*args):
        dds.append(args)
        return real_dd(*args)

    monkeypatch.setattr(polytope, "lp_feasible", no_lp)
    monkeypatch.setattr(polytope.Polytope, "__init__", counting_init)
    monkeypatch.setattr(polytope, "_supporting_hyperplanes", counting_dd)
    run()
    assert (len(polytopes), len(dds)) == (built, ran)


def test_library_polytopes_lift_no_normal_to_validate_or_place(monkeypatch):
    """validate, contains and projected_birkhoff's interior test read a
    library polytope's kept double description, in hull coordinates, so no
    facet normal is lifted: on a polytope file, a lower-dimensional hull and
    projected B4."""
    from spinaltri import polytope
    from spinaltri.triangulation import pulling_triangulation, validate

    def forbidden(p):
        raise AssertionError("a facet normal was lifted")

    monkeypatch.setattr(polytope, "_enumerate_facets", forbidden)
    assert projected_birkhoff(birkhoff_context(4)).dim == 6
    half = Fraction(1, 2)
    cube3 = load_polytope(GOLDEN_CUBE3)
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    tilted = polytope._vertex_polytope([qv(x, y, x + 2 * y) for x, y in square])
    for p, inside, on_facet, beyond, off in [
        (cube3, qv(half, half, half), qv(1, half, half), qv(2, half, half), None),
        (tilted, qv(1, 1, 3), qv(2, 1, 4), qv(3, 1, 5), qv(1, 1, 4)),
    ]:
        assert validate(pulling_triangulation(p), p)
        assert p.contains(inside) and p.contains(on_facet) and not p.contains(beyond)
        assert off is None or not p.contains(off)
        assert all(p.contains(v) for v in p.vertices)
