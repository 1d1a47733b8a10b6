import inspect
import itertools
import json
import math
import sys
import types
from fractions import Fraction

import pytest

from spinaltri import everest
from spinaltri.cli import main
from spinaltri.linalg import DimensionError, QVector, det, format_rational, parse_rational
from spinaltri.everest import (
    EverestError,
    EverestParams,
    c_constant,
    everest_polytope,
    everest_verify,
    everest_volume,
    g_eval,
    se_matrix,
    se_square_matrices,
    simplotope_with_spine,
    vertex_families,
)
from spinaltri.volume import polytope_volume
import everest_oracle
from linalg_oracle import QMatrix, concat, kernel_basis, rank
from test_birkhoff import is_int_rows
from test_golden_cli import load_corpus

GRID = [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestGauge:
    def test_zero(self):
        assert g_eval(EverestParams(2, 2), QVector([0, 0, 0, 0])) == 0

    def test_one_dim_is_absolute_value(self):
        p = EverestParams(1, 1)
        assert g_eval(p, QVector([Fraction(1, 2)])) == Fraction(1, 2)
        assert g_eval(p, QVector([Fraction(-1, 2)])) == Fraction(1, 2)

    def test_vertices_on_unit_level(self):
        for n, s in GRID:
            params = EverestParams(n, s)
            for v in vertex_families(params).everest:
                assert g_eval(params, v) == 1

    def test_doubled_vertices_outside(self):
        for n, s in GRID:
            params = EverestParams(n, s)
            for v in vertex_families(params).everest:
                assert g_eval(params, [2 * x for x in v]) > 1

    def test_membership(self):
        params = EverestParams(2, 2)
        assert g_eval(params, QVector([0, 0, 0, 0])) <= 1
        for v in vertex_families(params).everest:
            assert g_eval(params, v) <= 1

    def test_detail_quantities(self):
        params = EverestParams(2, 2)
        # Rows (1, -1) and (-1, 1) sum to 0: only the column maxima 1 + 1.
        assert g_eval(params, QVector([1, -1, -1, 1])) == 2
        # No positive entry: only the largest row deficit, max(1, 3/4).
        q = QVector([-1, 0, Fraction(-1, 2), Fraction(-1, 4)])
        assert g_eval(params, q) == 1
        # Column maxima (1, 0) and row deficits (-1, 1/2).
        assert g_eval(params, QVector([1, 0, Fraction(-1, 2), 0])) == Fraction(3, 2)

    def test_dimension_checked(self):
        with pytest.raises(DimensionError, match="^expected dimension 4, got 3$"):
            g_eval(EverestParams(2, 2), QVector([1, 2, 3]))


def in_minus_family(entries, n, s):
    if any(x not in (-1, 0) for x in entries):
        return False
    return all(sum(1 for j in range(s) if entries[i * s + j] == -1) <= 1 for i in range(n))


def in_one_family(entries, n, s):
    # Characterization: all +1 entries in a single column, that column
    # otherwise 0; rows with a +1 carry at most one -1; rows without a +1
    # carry none.
    if any(x not in (-1, 0, 1) for x in entries):
        return False
    one_cols = {j for i in range(n) for j in range(s) if entries[i * s + j] == 1}
    if len(one_cols) > 1:
        return False
    if not one_cols:
        return all(x == 0 for x in entries)
    col = one_cols.pop()
    for i in range(n):
        row = [entries[i * s + j] for j in range(s)]
        if row[col] == 1:
            if sum(1 for x in row if x == -1) > 1:
                return False
        elif row[col] == 0:
            if any(x != 0 for x in row):
                return False
        else:
            return False
    return True


class TestPatternCap:
    """vertex_families refuses (s+1)^(n+1) > MAX_SIGN_PATTERNS before it
    builds a single pattern; no oversized family is generated here."""

    @pytest.fixture
    def no_patterns(self, monkeypatch):
        # Every pattern comes out of itertools.product.
        def refuse(*args, **kwargs):
            raise AssertionError("a sign pattern was built")

        monkeypatch.setattr(everest, "itertools", types.SimpleNamespace(product=refuse))

    def test_the_probe_sees_a_pattern_built(self, no_patterns):
        with pytest.raises(AssertionError, match="a sign pattern was built"):
            vertex_families(EverestParams(1, 1))

    @pytest.mark.parametrize("n,s", [(3, 3), (2, 2), (1, 1)])
    def test_refused_just_over_the_cap(self, n, s, monkeypatch, no_patterns):
        monkeypatch.setattr(everest, "MAX_SIGN_PATTERNS", (s + 1) ** (n + 1) - 1)
        with pytest.raises(EverestError, match="desk-scale cap"):
            vertex_families(EverestParams(n, s))

    @pytest.mark.parametrize("n,s", [(3, 3), (2, 2), (1, 1)])
    def test_admitted_at_the_cap(self, n, s, monkeypatch):
        monkeypatch.setattr(everest, "MAX_SIGN_PATTERNS", (s + 1) ** (n + 1))
        fam = vertex_families(EverestParams(n, s))
        assert len(fam.everest) == (s + 1) ** (n + 1) - s - 1

    @pytest.mark.parametrize(
        "n,s", [(12, 1), (6, 3), (5, 4), (1, 64), (12, 12), (10**18, 10**18), (1, 10**100)]
    )
    def test_refused_over_the_module_cap(self, n, s, no_patterns):
        assert (s + 1) ** min(n + 1, 20) > everest.MAX_SIGN_PATTERNS
        with pytest.raises(EverestError, match="desk-scale cap"):
            vertex_families(EverestParams(n, s))

    @pytest.mark.parametrize("check", [everest.se_checks, se_square_matrices])
    @pytest.mark.parametrize("n,s", [(60, 60), (11, 1), (5, 3)])
    def test_carrier_is_not_built_over_the_cap(self, check, n, s, monkeypatch):
        # The (n + 1, s) families are refused before the ns x (n+1)s
        # carrier: E(60, 60)'s took seconds to build before the refusal.
        def refuse(*args):
            raise AssertionError("the carrier matrix was built")

        monkeypatch.setattr(everest, "se_matrix", refuse)
        with pytest.raises(EverestError, match="desk-scale cap"):
            check(EverestParams(n, s))

    def test_the_cap_admits_what_the_repository_uses(self):
        # selftest and the tests go up to E(3, 3) and the (n + 1, s)
        # families of E(2, 2); the golden corpus to E(4, 1) and E(1, 4),
        # whose lifting and verify routes build E(5, 1) and E(2, 4).
        for n, s in [(3, 3), (5, 1), (2, 4), (3, 2)]:
            assert (s + 1) ** (n + 1) <= everest.MAX_SIGN_PATTERNS


class TestFormulaCap:
    """c_constant refuses (n+1)s > MAX_FORMULA_FACTORIAL before it takes a
    factorial, and admits (n+1)s at the cap."""

    @pytest.mark.parametrize("n,s", [(9999, 1), (1, 5000), (4, 2000)])
    def test_admitted_at_the_cap(self, n, s):
        # ((n+1)s)! / (s!)^(n+1) is the multinomial prod_j C(js, s).
        assert (n + 1) * s == everest.MAX_FORMULA_FACTORIAL
        multinomial = math.prod(math.comb(j * s, s) for j in range(1, n + 2))
        want = Fraction(multinomial, math.factorial(n * s))
        assert c_constant(EverestParams(n, s)) == want

    @pytest.mark.parametrize("n,s", [(10000, 1), (72, 137), (136, 73), (3000, 3000)])
    def test_refused_over_the_cap(self, n, s, monkeypatch):
        def refuse(*args):
            raise AssertionError("a factorial was taken")

        monkeypatch.setattr(everest.math, "factorial", refuse)
        assert (n + 1) * s > everest.MAX_FORMULA_FACTORIAL
        with pytest.raises(EverestError, match="desk-scale cap"):
            c_constant(EverestParams(n, s))
        with pytest.raises(EverestError, match="desk-scale cap"):
            everest_volume(EverestParams(n, s))

    @pytest.mark.parametrize("n,s", [("10000", "1"), ("3000", "3000")])
    def test_cli_fails_in_one_line(self, n, s, capsys):
        assert main(["everest", "volume", n, s, "--method", "formula"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: the closed form of E({n},{s}) needs")


def _read_digits(text: str) -> int:
    """The integer a decimal string names, read 100 digits at a time, so
    under any limit on int(str)."""
    value = 0
    for i in range(0, len(text), 100):
        chunk = text[i : i + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestLongVolumes:
    """format_rational writes closed-form volumes of any length exactly,
    past the interpreter's 4,300-digit limit on str(int), which it leaves in
    place for parsing."""

    @pytest.mark.parametrize("n,s", [(60, 60), (4, 2000), (9, 1000)])
    def test_written_exactly(self, n, s):
        value = c_constant(EverestParams(n, s))
        limit = sys.get_int_max_str_digits()
        num, den = format_rational(value).split("/")
        assert len(den) > 4300
        assert (_read_digits(num), _read_digits(den)) == (value.numerator, value.denominator)
        assert sys.get_int_max_str_digits() == limit
        if limit:
            with pytest.raises(ValueError, match="limit"):
                parse_rational(f"{num}/{den}")

    def test_cli_prints_e_60_60(self, capsys):
        assert main(["everest", "volume", "60", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        num, den = doc["volume"].split("/")
        assert Fraction(_read_digits(num), _read_digits(den)) == c_constant(EverestParams(60, 60))


# Every (n, s) whose families vertex_families builds.
UNDER_THE_CAP = [
    (n, s)
    for n in range(1, 12)
    for s in range(1, 64)
    if (s + 1) ** (n + 1) <= everest.MAX_SIGN_PATTERNS
]


def assert_equals_the_former_construction(n, s):
    """The families equal the former QVector construction point for point
    and in order, each family a tuple of integer tuples."""
    fam = vertex_families(EverestParams(n, s))
    got = (fam.v_minus_one, fam.v_zero, fam.v_one, fam.everest)
    for family, former in zip(got, everest_oracle.vertex_families(n, s)):
        assert type(family) is tuple
        assert all(type(v) is tuple and len(v) == n * s for v in family)
        assert all(type(x) is int for v in family for x in v)
        assert family == tuple(v.entries for v in former)


class TestVertexFamilies:
    @pytest.mark.parametrize("n,s", [(n, s) for n in (1, 2, 3) for s in (1, 2, 3)])
    def test_cardinalities(self, n, s):
        fam = vertex_families(EverestParams(n, s))
        assert len(fam.v_minus_one) == (s + 1) ** n
        assert len(fam.v_zero) == s + 1
        assert len(fam.v_one) == s * (s + 1) ** n - s + 1
        assert len(fam.everest) == (s + 1) ** (n + 1) - s - 1

    def test_one_one_counts(self):
        fam = vertex_families(EverestParams(1, 1))
        assert len(fam.v_minus_one) == 2
        assert len(fam.v_zero) == 2
        assert len(fam.v_one) == 2
        assert len(fam.everest) == 2

    def test_intersection_is_origin(self):
        for n, s in GRID:
            fam = vertex_families(EverestParams(n, s))
            minus = set(fam.v_minus_one)
            assert minus & set(fam.v_one) == {(0,) * (n * s)}
            assert set(fam.v_zero) <= minus

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1), (2, 2)])
    def test_sign_pattern_characterizations(self, n, s):
        # The generated families coincide with the direct sign-pattern
        # filters over {-1,0,1}^(n*s).
        fam = vertex_families(EverestParams(n, s))
        grid = list(itertools.product((-1, 0, 1), repeat=n * s))
        minus = {e for e in grid if in_minus_family(e, n, s)}
        one = {e for e in grid if in_one_family(e, n, s)}
        assert set(fam.v_minus_one) == minus
        assert set(fam.v_one) == one

    @pytest.mark.parametrize(
        "n,s", [(n, s) for n, s in UNDER_THE_CAP if (s + 1) ** (n + 1) <= 1024]
    )
    def test_equals_the_former_construction(self, n, s):
        assert_equals_the_former_construction(n, s)

    @pytest.mark.slow
    def test_equals_the_former_construction_up_to_the_cap(self):
        # The 46 pairs past 1,024 patterns; the oracle takes about 22 s on them.
        for n, s in UNDER_THE_CAP:
            if (s + 1) ** (n + 1) > 1024:
                assert_equals_the_former_construction(n, s)


class TestEverestPolytope:
    def test_one_one_is_segment(self):
        p = everest_polytope(EverestParams(1, 1))
        assert sorted(v.entries for v in p.vertices) == [(-1,), (1,)]
        assert len(p.facets()) == 2

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1)])
    def test_contains_origin(self, n, s):
        p = everest_polytope(EverestParams(n, s))
        assert p.contains(QVector([0] * (n * s)))

    def test_vertex_counts(self):
        for (n, s), count in [((1, 2), 6), ((2, 1), 6)]:
            p = everest_polytope(EverestParams(n, s))
            assert p.n_vertices == count
            assert p.ambient_dim == n * s

    def test_scale_guard(self):
        with pytest.raises(EverestError):
            everest_polytope(EverestParams(4, 2))

    def test_hull_cap_is_a_module_constant(self):
        assert everest.MAX_HULL_DIM == 6
        assert list(inspect.signature(everest_polytope).parameters) == ["params"]
        with pytest.raises(EverestError) as err:
            everest_polytope(EverestParams(7, 1))
        assert str(err.value) == "dimension 7 exceeds the desk-scale cap 6"


class TestSimplotope:
    def test_square(self):
        p, sp = simplotope_with_spine(2, 1)
        assert {v.entries for v in p.vertices} == {
            (0, 0), (-1, 0), (0, -1), (-1, -1)
        }
        assert len(p.facets()) == 4

    def test_plain_constructor(self):
        p = simplotope_with_spine(1, 2)[0]
        assert p.n_vertices == 3 and p.dim == 2

    def test_s22(self):
        p, sp = simplotope_with_spine(2, 2)
        assert p.n_vertices == 9
        assert p.dim == 4
        assert polytope_volume(p).volume == Fraction(1, 4)
        assert len(p.facets()) == 6
        assert sp.n == 3

    def test_s32_facets(self):
        p = simplotope_with_spine(3, 2)[0]
        assert p.n_vertices == 27 and p.dim == 6
        fs = p.facets()
        assert len(fs) == 9
        assert all(len(f.incident) == 18 for f in fs)

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 1), (2, 2)])
    def test_facet_count(self, n, s):
        p, _ = simplotope_with_spine(n, s)
        assert len(p.facets()) == n * (s + 1)


def qmatrix_se_matrix(params: EverestParams) -> QMatrix:
    """The former `se_matrix`, which built a QMatrix."""
    n, s = params.n, params.s
    rows = []
    for i in range(n):
        for j in range(s):
            row = [0] * (n * s + s)
            row[i * s + j] = 1
            row[n * s + j] = -1
            rows.append(row)
    return QMatrix(rows, cols=(n + 1) * s)


def qmatrix_se_square_matrices(params: EverestParams) -> tuple[QMatrix, QMatrix]:
    """The matrices of the former `se_square_matrices`, as QMatrix."""
    n, s = params.n, params.s
    pi = qmatrix_se_matrix(params)
    ext_rows = [list(r) for r in pi.entries]
    for j in range(s):
        row = [0] * (n + 1) * s
        row[n * s + j] = 1
        ext_rows.append(row)
    pi_tilde = QMatrix(ext_rows, cols=(n + 1) * s)
    proj_rows = []
    for i in range(n * s):
        row = [0] * (n + 1) * s
        row[i] = 1
        proj_rows.append(row)
    proj = QMatrix(proj_rows, cols=(n + 1) * s)
    assert proj @ pi_tilde == pi
    return pi_tilde, proj


class TestSETransformation:
    def test_one_one_matrix(self):
        assert se_matrix(EverestParams(1, 1)) == ((1, -1),)

    @pytest.mark.parametrize("n,s", GRID + [(3, 2), (1, 4)])
    def test_int_rows_equal_the_former_matrices(self, n, s):
        params = EverestParams(n, s)
        pi = se_matrix(params)
        assert is_int_rows(pi) and QMatrix(pi) == qmatrix_se_matrix(params)
        got = se_square_matrices(params)
        want = qmatrix_se_square_matrices(params)
        for m, w in zip(got, want):
            assert is_int_rows(m) and QMatrix(m) == w

    @pytest.mark.parametrize("n,s", GRID)
    def test_kills_single_column_family(self, n, s):
        pi = QMatrix(se_matrix(EverestParams(n, s)))
        up = vertex_families(EverestParams(n + 1, s))
        for u in up.v_zero:
            assert (pi @ QVector(u)).is_zero()

    @pytest.mark.parametrize("n,s", GRID)
    def test_image_is_everest_vertex_set(self, n, s):
        params = EverestParams(n, s)
        pi = QMatrix(se_matrix(params))
        up = vertex_families(EverestParams(n + 1, s))
        zero = set(up.v_zero)
        images = {(pi @ QVector(v)).entries for v in up.v_minus_one if v not in zero}
        expected = set(vertex_families(params).everest)
        assert images == expected

    @pytest.mark.parametrize("n,s", GRID)
    def test_kernel_matches_single_column_span(self, n, s):
        pi = QMatrix(se_matrix(EverestParams(n, s)))
        basis = kernel_basis(pi)
        up = vertex_families(EverestParams(n + 1, s))
        nonzero = [u for u in up.v_zero if any(u)]
        assert len(basis) == len(nonzero) == s
        stacked = QMatrix([list(v) for v in basis + nonzero], cols=(n + 1) * s)
        assert rank(stacked) == s

    @pytest.mark.parametrize("n,s", GRID)
    def test_square_extension(self, n, s):
        params = EverestParams(n, s)
        pi_tilde, proj = map(QMatrix, se_square_matrices(params))
        assert proj @ pi_tilde == QMatrix(se_matrix(params))
        assert abs(det(pi_tilde.entries)) == 1
        up = vertex_families(EverestParams(n + 1, s))
        transformed = {(pi_tilde @ QVector(u)).entries for u in up.v_zero}
        expected = {
            concat(QVector([0] * (n * s)), -everest_oracle.unit_row(s, j)).entries
            for j in range(s + 1)
        }
        assert transformed == expected

    @pytest.mark.parametrize("n,s", GRID)
    def test_projection_composition(self, n, s):
        params = EverestParams(n, s)
        pi = QMatrix(se_matrix(params))
        pi_tilde, proj = map(QMatrix, se_square_matrices(params))
        up = vertex_families(EverestParams(n + 1, s))
        for v in map(QVector, up.v_minus_one):
            assert proj @ (pi_tilde @ v) == pi @ v


class TestVolume:
    def test_c_values(self):
        assert c_constant(EverestParams(1, 1)) == 2
        assert c_constant(EverestParams(1, 2)) == 3
        assert c_constant(EverestParams(2, 1)) == 3
        assert c_constant(EverestParams(2, 2)) == Fraction(15, 4)

    @pytest.mark.parametrize("n,s", [(1, 1), (1, 2), (2, 1)])
    def test_hull_matches_formula(self, n, s):
        params = EverestParams(n, s)
        assert everest_volume(params, "hull") == c_constant(params)

    @pytest.mark.parametrize("n,s", [(1, 1), (1, 2), (2, 1)])
    def test_lifting_matches_formula(self, n, s):
        params = EverestParams(n, s)
        assert everest_volume(params, "lifting") == c_constant(params)

    def test_lifting_matches_formula_22(self):
        params = EverestParams(2, 2)
        assert everest_volume(params, "lifting") == Fraction(15, 4)

    def test_lifting_builds_the_families_once(self, monkeypatch):
        calls = []
        real = everest.vertex_families

        def counting(params):
            calls.append(params)
            return real(params)

        monkeypatch.setattr(everest, "vertex_families", counting)
        assert everest_volume(EverestParams(2, 2), "lifting") == Fraction(15, 4)
        assert calls == [EverestParams(3, 2)]

    @pytest.mark.parametrize(
        "argv, families",
        [
            (["verify", "2", "2", "--lifting"], [(2, 2), (3, 2)]),
            (["verify", "2", "2"], [(2, 2), (3, 2)]),
            (["verify", "1", "3", "--lifting", "--pretty"], [(1, 3), (2, 3)]),
            (["volume", "2", "2", "--method", "hull"], [(2, 2)]),
            (["volume", "2", "2", "--method", "lifting"], [(3, 2)]),
            (["vertices", "2", "2"], [(2, 2)]),
        ],
    )
    def test_each_command_builds_each_family_once(self, argv, families, monkeypatch, capsys):
        # Patched at every binding site, as perfbench's tracer patches it.
        calls = []
        real = everest.vertex_families

        def counting(params):
            calls.append((params.n, params.s))
            return real(params)

        sites = [
            (module, name)
            for module in list(sys.modules.values())
            if module.__name__.split(".")[0] == "spinaltri"
            for name, value in vars(module).items()
            if value is real
        ]
        assert {m.__name__ for m, _ in sites} >= {"spinaltri.everest", "spinaltri.cli"}
        for module, name in sites:
            monkeypatch.setattr(module, name, counting)
        assert main(["everest", *argv]) == 0
        assert calls == families
        assert capsys.readouterr().err == ""

    def test_unknown_method(self):
        with pytest.raises(EverestError):
            everest_volume(EverestParams(1, 1), "monte-carlo")


class TestVerify:
    """everest_verify is the report `spinaltri everest verify` prints."""

    @pytest.mark.parametrize(
        "argv",
        [
            r["argv"]
            for r in load_corpus()
            if r["argv"][:2] == ["everest", "verify"] and r["exit"] == 0
        ],
        ids=" ".join,
    )
    def test_the_cli_prints_its_checks(self, argv, capsys):
        # --pretty prints the checks in report order, one per line.
        assert main([a for a in argv if a != "--pretty"] + ["--pretty"]) == 0
        params = EverestParams(int(argv[2]), int(argv[3]))
        checks = everest_verify(params, lifting="--lifting" in argv)
        assert capsys.readouterr().out.splitlines() == [
            f"{name}: {'pass' if flag else 'FAIL'}" for name, flag in checks.items()
        ]

    def test_the_gauge_runs_once_per_vertex(self, monkeypatch, capsys):
        # Patched at every binding site, as perfbench's tracer patches it.
        calls = []
        real = everest.g_eval

        def counting(params, x):
            calls.append(tuple(x))
            return real(params, x)

        sites = [
            (module, name)
            for module in list(sys.modules.values())
            if module.__name__.split(".")[0] == "spinaltri"
            for name, value in vars(module).items()
            if value is real
        ]
        assert {m.__name__ for m, _ in sites} >= {"spinaltri", "spinaltri.everest"}
        for module, name in sites:
            monkeypatch.setattr(module, name, counting)
        assert main(["everest", "verify", "2", "2"]) == 0
        assert sorted(calls) == sorted(vertex_families(EverestParams(2, 2)).everest)
        assert capsys.readouterr().err == ""
