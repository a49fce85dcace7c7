import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realpw import (MultiPoly, PolyFamily, parse_poly, eval_symbol_many,
                    family_linear, family_quadratic, family_quadratic_real,
                    family_explicit, make_grid, sample_builtin, PolyError,
                    ParseError, constant, variable, Spectrum, compute_R,
                    growth_sequence, local_spectrum_raster, pde_support_probe,
                    reconstruct_support, apply_op_spectral, symbol_bound)
from realpw.poly import MAX_COUNT


def symbol_at(P, lam):
    """Reference P(i lam) at one frequency vector, in plain Python: the sum
    over P's terms of c * prod_j (i lam_j)^e_j."""
    return sum(c * math.prod((1j * float(l)) ** e for l, e in zip(lam, alpha))
               for alpha, c in P.coeffs.items())


class TestParser:
    def test_product_of_variables(self):
        P = parse_poly("x1*x2", 2)
        assert P.coeffs == {(1, 1): 1.0 + 0j}

    def test_constant(self):
        P = parse_poly("3", 1)
        assert P.coeffs == {(0,): 3.0 + 0j}

    def test_sum_of_squares(self):
        P = parse_poly("x1^2 + x2^2", 2)
        assert len(P.coeffs) == 2
        assert P.degree == 2

    def test_imaginary_unit(self):
        P = parse_poly("0.5 + 2*i*x1", 1)
        assert P.coeffs == {(0,): 0.5 + 0j, (1,): 2j}

    def test_scientific_notation_and_parens(self):
        P = parse_poly("2.5e-1*(x1 - 1)^2", 1)
        # 0.25*(x1^2 - 2 x1 + 1)
        assert P.coeffs[(2,)] == pytest.approx(0.25)
        assert P.coeffs[(1,)] == pytest.approx(-0.5)
        assert P.coeffs[(0,)] == pytest.approx(0.25)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x1^", 1)
        assert err.value.position == 3

    def test_variable_index_beyond_dimension(self):
        with pytest.raises(ParseError):
            parse_poly("x3", 2)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_poly("2 x1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x1 + ", 1)

    def test_parsed_matches_direct_evaluation(self):
        # independent oracle: evaluate the expression with plain numpy ops
        rng = np.random.default_rng(11)
        P = parse_poly("0.5*x1^3 - 2*x1*x2 + i*x2^2 - 4", 2)
        lams = rng.uniform(-3, 3, size=(100, 2))
        got = eval_symbol_many(P, lams)
        for lam, value in zip(lams, got):
            z1, z2 = 1j * lam[0], 1j * lam[1]
            want = 0.5 * z1 ** 3 - 2 * z1 * z2 + 1j * z2 ** 2 - 4
            assert value == pytest.approx(want, rel=1e-12)


@st.composite
def random_polys(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n_terms = draw(st.integers(min_value=0, max_value=5))
    coeffs = {}
    for _ in range(n_terms):
        alpha = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(d))
        re = draw(st.integers(min_value=-50, max_value=50))
        im = draw(st.integers(min_value=-50, max_value=50))
        if re or im:
            coeffs[alpha] = re + 1j * im
    return MultiPoly(d, coeffs)


class TestTextRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(random_polys())
    def test_round_trip(self, P):
        again = parse_poly(P.to_text(), P.d)
        assert again.coeffs == P.coeffs

    def test_zero_polynomial(self):
        P = MultiPoly(2, {})
        assert P.to_text() == "0"
        assert parse_poly("0", 2).is_zero
        assert P.degree == -np.inf


class TestSymbol:
    def test_first_derivative_symbol(self):
        P = parse_poly("x1", 1)
        assert eval_symbol_many(P, [[2.0]])[0] == pytest.approx(2j)

    def test_laplacian_symbol(self):
        P = parse_poly("x1^2 + x2^2", 2)
        assert eval_symbol_many(P, [[1.0, 1.0]])[0] == pytest.approx(-2.0)

    def test_mixed_symbol(self):
        P = parse_poly("x1*x2", 2)
        assert eval_symbol_many(P, [[3.0, 0.5]])[0] == pytest.approx(-1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(PolyError,
                           match=r"^1\.0\*x1: d = 1, but the points have shape \(1, 2\)"):
            eval_symbol_many(parse_poly("x1", 1), [[1.0, 2.0]])

    @settings(max_examples=30, deadline=None)
    @given(random_polys(),
           st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False))
    def test_homogeneity(self, P, c):
        # scaling coefficients before summation re-associates the sum, so
        # agreement is to rounding, not bit-exact
        lam = np.linspace(-1, 1, P.d)
        assert eval_symbol_many(c * P, lam) == pytest.approx(
            eval_symbol_many(P, lam) * c, rel=1e-13, abs=1e-300)

    def test_many_matches_single(self):
        rng = np.random.default_rng(0)
        P = parse_poly("x1^2 - i*x2", 2)
        lams = rng.uniform(-2, 2, size=(40, 2))
        many = eval_symbol_many(P, lams)
        for k in range(40):
            assert many[k] == pytest.approx(symbol_at(P, lams[k]))


def symbol_with_full_terms(P, lams):
    """The evaluator as it was before each term started from its scalar
    coefficient: every term is first a full array of c."""
    lams = np.asarray(lams, dtype=float)
    z = 1j * lams
    out = np.zeros(lams.shape[:-1], dtype=complex)
    for alpha, c in P.coeffs.items():
        term = np.full(lams.shape[:-1], c, dtype=complex)
        for j, e in enumerate(alpha):
            if e:
                term = term * z[..., j] ** e
        out += term
    return out


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def polys_and_points(draw):
    d = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 6)] * d),
                                 st.complex_numbers(max_magnitude=1e3, **FINITE),
                                 max_size=6))
    lead = draw(st.lists(st.integers(0, 3), max_size=2))      # a 0 gives no points
    n = int(np.prod(lead + [d]))
    points = draw(st.lists(st.floats(-40, 40, **FINITE), min_size=n, max_size=n))
    return MultiPoly(d, terms), np.array(points, dtype=float).reshape(lead + [d])


class TestSymbolDifferential:
    @settings(max_examples=300, deadline=None)
    @given(polys_and_points())
    def test_scalar_start_is_bit_identical(self, case):
        P, lams = case
        got, want = eval_symbol_many(P, lams), symbol_with_full_terms(P, lams)
        assert got.shape == want.shape == lams.shape[:-1]
        assert got.tobytes() == want.tobytes()


class TestExponents:
    @pytest.mark.parametrize("alpha", [(2,), (2.0,), (np.int64(2),), (np.float64(2.0),)])
    def test_integral_exponent_is_accepted(self, alpha):
        P = MultiPoly(1, {alpha: 3})
        assert P.coeffs == {(int(alpha[0]),): 3 + 0j}
        assert all(type(e) is int for e in next(iter(P.coeffs)))

    @pytest.mark.parametrize("coeffs", [{(1.5,): 1}, {("2",): 1}, {(1.7,): 1, (1,): 2},
                                        {(-1,): 1}, {(1, 0): 1}])
    def test_other_exponent_is_refused(self, coeffs):
        with pytest.raises(PolyError, match="bad exponent multi-index"):
            MultiPoly(1, coeffs)

    @pytest.mark.parametrize("alpha", [(float("nan"),), (float("inf"),), (None,), (True,),
                                       (np.True_,), (False,), 1])
    def test_non_number_exponent_is_refused_naming_it(self, alpha):
        # int() raised ValueError, OverflowError and TypeError of its own on
        # the first three, and True was taken as x1
        with pytest.raises(PolyError, match="^bad exponent multi-index " + re.escape(repr(alpha))):
            MultiPoly(1, {alpha: 1})


class TestFiniteCoefficients:
    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, complex(1, math.inf),
                                   complex(math.nan, 0)])
    def test_non_finite_coefficient_is_refused(self, c):
        with pytest.raises(PolyError, match=r"^coefficient .* of \(2,\) is not finite$"):
            MultiPoly(1, {(0,): 1, (2,): c})

    def test_overflowing_product_is_refused(self):
        big = parse_poly("1e300*x1 + 1", 1)
        with pytest.raises(PolyError, match="not finite"):
            big * big
        with pytest.raises(PolyError, match="not finite"):
            big * 1e10

    def test_power_stops_at_its_first_overflowing_product(self, monkeypatch):
        # P^7 by squaring is 1 * P, P * P, P * P^2 and then P^2 * P^2, whose
        # 1e400 is past the double range: refused there, so P^3 * P^4 is
        # never formed
        products, mul = [], MultiPoly.__mul__

        def counting(a, b):
            products.append(b)
            return mul(a, b)
        P = parse_poly("1e100*x1 + 1", 1)
        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        with pytest.raises(PolyError, match=r"coefficient \(inf\+0j\) of \(4,\) is not finite"):
            P ** 7
        assert len(products) == 4

    @pytest.mark.parametrize("text,position", [("(1e200*x1+1)^2", 12), ("1e300*1e300", 5),
                                               ("x1 + 1e308*x1 + 1e308*x1", 14)])
    def test_parser_names_the_operator_that_overflows(self, text, position):
        with pytest.raises(ParseError, match="not finite") as err:
            parse_poly(text, 1)
        assert err.value.position == position

    def test_family_names_its_first_non_finite_row(self):
        C = np.array([[1, 2], [3, np.inf], [np.nan, 0]], dtype=complex)
        with pytest.raises(PolyError, match=r"^member 1 has a coefficient that is not finite"):
            PolyFamily(1, ((0,), (1,)), C, "explicit")

    @pytest.mark.parametrize("build", [family_quadratic, family_quadratic_real])
    def test_overflowing_center_is_refused_without_a_warning(self, build):
        # the center lies inside the frequency box, but |c|^2 overflows
        grid = make_grid(1, 64, 1e-160)
        with pytest.raises(PolyError, match="^member 1 has a coefficient that is not finite"):
            build([[0.0], [1e160]], grid)


def _two_d_case():
    grid = make_grid(2, 32, 0.5)
    f = sample_builtin({"kind": "spectral_bump",
                        "support": {"shape": "ball", "radius": 1.5}}, grid)
    return grid, f, Spectrum.of(f).mask


P1, Q2 = parse_poly("x1", 1), parse_poly("x1^2 + x2^2", 2)
MISMATCHED = {
    "eval_symbol_many": lambda grid, f, mask: eval_symbol_many(P1, grid.frequency_coords()),
    "growth_sequence": lambda grid, f, mask: growth_sequence(f, P1, 2, 16),
    "compute_R": lambda grid, f, mask: compute_R(P1, mask),
    "local_spectrum_raster": lambda grid, f, mask: local_spectrum_raster(P1, mask),
    "pde_support_probe P": lambda grid, f, mask: pde_support_probe(f, P1, Q2),
    "pde_support_probe Q": lambda grid, f, mask: pde_support_probe(f, Q2 + constant(2, 1), P1),
    "reconstruct_support": lambda grid, f, mask: reconstruct_support(f, family_explicit([P1]),
                                                                     2, 16),
    "apply_op_spectral": lambda grid, f, mask: apply_op_spectral(f, P1, 2),
}


class TestOneDimensionCheck:
    @pytest.mark.parametrize("name", sorted(MISMATCHED))
    def test_polynomial_of_another_dimension_is_refused(self, name):
        # every public path from a polynomial to its symbol on a d = 2 grid
        # or mask goes through eval_symbol_many's one check
        with pytest.raises(PolyError, match=r"^1\.0\*x1: d = 1, but the points have shape"):
            MISMATCHED[name](*_two_d_case())


class TestFamilies:
    def test_linear_1d(self):
        fam = family_linear([[1.0]])
        assert len(fam) == 1
        assert symbol_at(fam.polys[0], [3.0]) == pytest.approx(3j)

    def test_linear_eight_directions(self):
        dirs = [[np.cos(a), np.sin(a)] for a in np.linspace(0, np.pi, 8, endpoint=False)]
        fam = family_linear(dirs)
        assert len(fam) == 8
        assert all(P.degree == 1 for P in fam)

    def test_linear_rejects_zero_vector(self):
        with pytest.raises(PolyError):
            family_linear([[0.0, 0.0]])

    @pytest.mark.parametrize("direction,unit", [([1e200], [1.0]), ([1e-200, 0.0], [1.0, 0.0]),
                                                ([0.0, -1e300, 0.0], [0.0, -1.0, 0.0])])
    def test_linear_direction_at_the_double_range(self, direction, unit):
        # the norm used to overflow to inf (the zero polynomial, with a
        # RuntimeWarning) or underflow to 0 (refused as a zero direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = family_linear([direction])
        assert fam.coeffs[0].tobytes() == np.array(unit, dtype=complex).tobytes()
        with pytest.raises(PolyError, match=r"^zero direction vector \(direction 1\)$"):
            family_linear([direction, [0.0] * len(direction)])

    def test_linear_scaling_is_exact(self):
        # a power-of-two scaling changes no in-range member by a bit
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-100, 100, size=(200, 1))
        for row, got in zip(X, family_linear(X).coeffs):
            assert got.tobytes() == (row / np.sqrt(np.vecdot(row, row))).astype(complex).tobytes()

    def test_linear_symbols_purely_imaginary(self):
        fam = family_linear([[0.3, -0.9], [1.0, 2.0]])
        rng = np.random.default_rng(5)
        for P in fam:
            for lam in rng.uniform(-10, 10, size=(20, 2)):
                assert symbol_at(P, lam).real == 0.0

    def test_quadratic_symbol_at_origin_center(self):
        grid = make_grid(2, 64, 0.5)
        fam = family_quadratic([[0.0, 0.0]], grid)
        assert abs(symbol_at(fam.polys[0], [3.0, 4.0])) == pytest.approx(25.0)

    def test_quadratic_vanishes_at_center(self):
        grid = make_grid(2, 64, 0.5)
        fam = family_quadratic([[1.0, 0.0]], grid)
        assert abs(symbol_at(fam.polys[0], [1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_lattice_cardinality(self):
        grid = make_grid(2, 64, 0.5)
        vals = np.linspace(-2, 2, 16)
        centers = [[a, b] for a in vals for b in vals]
        fam = family_quadratic(centers, grid)
        assert len(fam) == 256

    def test_quadratic_distance_identity(self):
        grid = make_grid(2, 64, 0.5)
        rng = np.random.default_rng(13)
        for _ in range(1000):
            c = rng.uniform(-2, 2, size=2)
            lam = rng.uniform(-3, 3, size=2)
            fam = family_quadratic([c], grid)
            want = float(np.sum((lam - c) ** 2))
            got = abs(symbol_at(fam.polys[0], lam))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_quadratic_center_outside_box(self):
        grid = make_grid(2, 64, 0.5)   # frequency half-width 2 pi
        with pytest.raises(PolyError):
            family_quadratic([[10.0, 0.0]], grid)

    def test_quadratic_real_symbol_identity(self):
        grid = make_grid(2, 64, 0.5)
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = rng.uniform(-2, 2, size=2)
            lam = rng.uniform(-3, 3, size=2)
            fam = family_quadratic_real([c], grid)
            sig = symbol_at(fam.polys[0], lam)
            want = (np.dot(c, c) - np.dot(lam, lam)) - 2j * np.dot(c, lam)
            assert sig == pytest.approx(want, rel=1e-12, abs=1e-12)


def old_squared_distance(c, a, sign):
    """The builders' member before families were one coefficient array:
    sign * sum_j (x_j - a c_j)^2 as a MultiPoly, one per center."""
    d = c.size
    coeffs = {(0,) * d: float(np.sum(c ** 2))}
    for j in range(d):
        coeffs[tuple(2 if k == j else 0 for k in range(d))] = sign
        if c[j] != 0:
            coeffs[tuple(1 if k == j else 0 for k in range(d))] = -2.0 * sign * a * c[j]
    return MultiPoly(d, coeffs)


def old_linear(xi):
    xi = np.asarray(xi, dtype=float)
    xi = xi / np.linalg.norm(xi)
    d = xi.size
    return MultiPoly(d, {tuple(1 if k == j else 0 for k in range(d)): xi[j]
                         for j in range(d) if xi[j] != 0})


def same_members(family, polys):
    """family's members equal polys bit for bit and term for term, in order."""
    return ([(P.d, list(P.coeffs), bits(P)) for P in family.polys]
            == [(P.d, list(P.coeffs), bits(P)) for P in polys])


class TestFamilyMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_builders_match_the_member_by_member_builders(self, d):
        grid = make_grid(d, 16, 0.5)
        rng = np.random.default_rng(d)
        centers = rng.uniform(-3, 3, size=(40, d))
        centers[::3, 0] = 0.0                  # members without x1, or without a constant
        centers[::6] = 0.0
        for build, a, sign in ((family_quadratic_real, 1.0, 1.0), (family_quadratic, 1j, -1.0)):
            assert same_members(build(centers, grid),
                                [old_squared_distance(c, a, sign) for c in centers])
            assert same_members(build(centers.tolist(), grid),
                                [old_squared_distance(c, a, sign) for c in centers])
        dirs = centers[centers.any(axis=1)]
        assert same_members(family_linear(dirs), [old_linear(c) for c in dirs])

    def test_members_are_built_when_first_read(self):
        fam = family_quadratic_real([[0.5, 1.0], [0.0, -1.0]], make_grid(2, 16, 0.5))
        assert "polys" not in vars(fam)
        assert fam.coeffs.shape == (2, 5) and not fam.coeffs.flags.writeable
        assert len(fam) == 2 and fam.d == 2
        rows = fam[1:]
        assert isinstance(rows, PolyFamily) and len(rows) == 1 and "polys" not in vars(fam)
        assert rows.polys[0].to_text() == "1.0 + 2.0*x2 + 1.0*x2^2 + 1.0*x1^2"
        assert fam[0] is fam.polys[0] and list(fam) == list(fam.polys)

    def test_constructor_takes_a_read_only_copy_of_its_rows(self):
        C = np.array([[1.0, 0.0], [0.0, 2j]])
        fam = PolyFamily(1, ((1,), (2,)), C, "explicit")
        assert C.flags.writeable and not fam.coeffs.flags.writeable
        assert [P.to_text() for P in fam] == ["1.0*x1", "2.0*i*x1^2"]
        for bad in (C[:, :1], C[0], np.zeros((0, 2))):
            with pytest.raises(PolyError):
                PolyFamily(1, ((1,), (2,)), bad, "explicit")

    def test_explicit_family_keeps_its_polys(self):
        polys = [parse_poly("x1 + 2", 2), parse_poly("i*x2^2 - x1", 2), parse_poly("0", 2)]
        fam = family_explicit(polys)
        assert fam.monomials == ((1, 0), (0, 0), (0, 2))
        assert fam.coeffs.tolist() == [[1, 2, 0], [-1, 0, 1j], [0, 0, 0]]
        assert all(a is b for a, b in zip(fam.polys, polys))
        assert fam[1:].polys == tuple(polys[1:])
        with pytest.raises(PolyError, match="member 1 has d = 1, member 0 d = 2"):
            family_explicit([polys[0], parse_poly("x1", 1)])
        with pytest.raises(PolyError, match="non-empty"):
            family_explicit([])

    def test_symbol_bound_of_a_family(self):
        fam = family_explicit([parse_poly("x1^400", 1), parse_poly("2*x1 - i", 1)])
        assert symbol_bound(fam, 1e3).tolist() == [math.inf, 2001.0]
        assert symbol_bound(fam[1:], 1e3).tolist() == [symbol_bound(fam.polys[1], 1e3)]
        assert symbol_bound(fam.polys[0], 1e3) == math.inf


NOT_VECTORS = [([[float("nan"), 0.0]], 0), ([[0.0, 1.0], [1.0, float("inf")]], 1),
               ([[0.0, 1.0], [1.0]], 1), ([[0.0, 1.0], [1.0, 2.0, 3.0]], 1),
               ([[0.0, 1.0], [None, 1.0]], 1), ([[1.0, 0.0], ["a", 1.0]], 1),
               ([[1.0, 0.0], 2.0], 1), ([[]], 0), ([1.0, 2.0], 0)]


class TestFamilyVectors:
    # at the parent the first two built members with nan coefficients and a
    # ragged list ended in "family members must share the dimension"
    @pytest.mark.parametrize("vectors,bad", NOT_VECTORS)
    @pytest.mark.parametrize("build,what", [
        (lambda v: family_quadratic_real(v, make_grid(2, 16, 0.5)), "center"),
        (lambda v: family_quadratic(v, make_grid(2, 16, 0.5)), "center"),
        (family_linear, "direction")])
    def test_bad_vector_is_named(self, build, what, vectors, bad):
        with pytest.raises(PolyError, match=rf"^{what} {bad} .* is not a finite vector"):
            build(vectors)

    def test_empty_and_zero_vectors(self):
        with pytest.raises(PolyError, match="non-empty"):
            family_linear([])
        with pytest.raises(PolyError, match=r"zero direction vector \(direction 1\)"):
            family_linear([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(PolyError, match=r"^center 1 \[10\.  0\.\] outside"):
            family_quadratic([[0.0, 0.0], [10.0, 0.0]], make_grid(2, 64, 0.5))


@st.composite
def families_and_points(draw):
    """A PolyFamily over a drawn monomial list, rows with zero and nonzero
    coefficients, and points of 0-2 leading axes (a 0 gives none)."""
    d = draw(st.integers(1, 3))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), unique=True, max_size=6))
    members = draw(st.integers(1, 4))
    coeff = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e3, **FINITE))
    C = np.array(draw(st.lists(st.lists(coeff, min_size=len(monomials), max_size=len(monomials)),
                               min_size=members, max_size=members)), dtype=complex)
    lead = draw(st.lists(st.integers(0, 3), max_size=2))
    n = int(np.prod(lead + [d]))
    points = draw(st.lists(st.floats(-40, 40, **FINITE), min_size=n, max_size=n))
    family = PolyFamily(d, tuple(monomials), C.reshape(members, len(monomials)), "explicit")
    return family, np.array(points, dtype=float).reshape(lead + [d])


class TestFamilyEvaluatorDifferential:
    @settings(max_examples=300, deadline=None)
    @given(families_and_points())
    def test_block_rows_are_the_members_alone(self, per_member, case):
        family, lams = case
        block = eval_symbol_many(family, lams)
        assert block.shape == (len(family),) + lams.shape[:-1]
        for k, P in enumerate(family.polys):
            want = per_member(P, lams).tobytes()
            assert block[k].tobytes() == want
            assert eval_symbol_many(P, lams).tobytes() == want
            assert eval_symbol_many(family[k:k + 1], lams)[0].tobytes() == want
        if lams.ndim > 1 and len(lams):
            keep = np.arange(len(lams)) % 2 == 0
            assert (eval_symbol_many(family, lams[keep]).tobytes()
                    == block[:, keep].tobytes())

    def test_an_overflowing_monomial_stays_in_its_row(self, per_member):
        # x1^400 overflows at lam = 1e3; the member without it must not see
        # 0 * inf = nan
        fam = PolyFamily(1, ((400,), (1,)), np.array([[1, 1], [0, 2]], dtype=complex), "explicit")
        with np.errstate(over="ignore", invalid="ignore"):
            block = eval_symbol_many(fam, [[1e3], [1.0]])
            want = per_member(fam.polys[0], [[1e3], [1.0]])
        assert not np.isfinite(block[0, 0]) and block[0].tobytes() == want.tobytes()
        assert block[1].tolist() == [2e3j, 2j]


class TestAlgebraHelpers:
    def test_constant_and_variable(self):
        P = constant(2, 3.0) + variable(2, 1) * variable(2, 2)
        assert P.coeffs == {(0, 0): 3.0 + 0j, (1, 1): 1.0 + 0j}

    def test_power(self):
        P = (variable(1, 1) + constant(1, 1.0)) ** 3
        assert P.coeffs[(3,)] == pytest.approx(1.0)
        assert P.coeffs[(2,)] == pytest.approx(3.0)
        assert P.coeffs[(0,)] == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 27, 40])
    def test_power_squares_only_while_bits_remain(self, monkeypatch, k):
        # one product per set bit of k and one square per bit after the
        # first: a square past the last bit would be the largest product
        P, calls, mul = parse_poly("x1 + x2 + 1", 2), [], MultiPoly.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return mul(self, other)

        want = P
        for _ in range(k - 1):
            want = want * P
        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        got = P ** k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1")
        assert got.coeffs.keys() == want.coeffs.keys()
        assert all(got.coeffs[a] == pytest.approx(c, rel=1e-14) for a, c in want.coeffs.items())

    def test_variable_out_of_range(self):
        with pytest.raises(PolyError):
            variable(2, 3)


# ---------------------------------------------------------------------------
# the token loop against the recursive-descent parser it replaced
# ---------------------------------------------------------------------------

class ReferenceParser:
    """The recursive-descent parser that parse_poly replaced, kept as the
    reference: a hand-written lexer and one method per grammar rule.  It
    recurses once per nesting level, and "x1\u00b2" ends in int("1\u00b2")."""

    def __init__(self, text: str, d: int):
        self.text = text
        self.d = d
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> MultiPoly:
        out = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return out

    def expr(self) -> MultiPoly:
        if self.take("-"):
            out = -self.term()
        else:
            self.take("+")
            out = self.term()
        while True:
            if self.take("+"):
                out = out + self.term()
            elif self.take("-"):
                out = out - self.term()
            else:
                return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while self.take("*"):
            out = out * self.factor()
        return out

    def factor(self) -> MultiPoly:
        base = self.base()
        if self.take("^"):
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected integer exponent after '^'")
            return base ** int(self.text[start:self.pos])
        return base

    def base(self) -> MultiPoly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return out
        if ch == "i":
            self.pos += 1
            return constant(self.d, 1j)
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                self.error("expected variable index after 'x'")
            j = int(self.text[start:self.pos])
            if not 1 <= j <= self.d:
                self.error(f"variable x{j} exceeds dimension d={self.d}")
            return variable(self.d, j)
        if ch.isdigit() or ch == ".":
            return constant(self.d, self.number())
        self.error("expected a number, variable, 'i' or '('")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        if self.pos == start:
            self.error("expected a number")
        number = self.text[start:self.pos]
        try:
            value = float(number)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            self.pos = start
            self.error(f"bad number {number!r}")
        return value


def bits(P):
    """P's coefficients with their real and imaginary parts bit for bit."""
    return {a: (c.real.hex(), c.imag.hex()) for a, c in P.coeffs.items()}


SPACES = ["", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
ATOMS = ["x1", "x2", "x3", "x0", "x4", "x01", "x003", "i", "0", "1", "7", "2.5", ".5", "3.",
         "1e3", "2E-1", "7e+2", "0.0", "1e999", "1e-400", "\u0661", "x\u0662", "1.5e", "4e+"]
EXPONENTS = ["0", "1", "2", "3", "02"]
GARBAGE = "x123i+-*^().eE \t\u00b2\u0661\u00a0"


def grammar_text(pick, depth=3):
    """A text of the parser's grammar, each choice made by pick(options):
    sums, products, groups with a leading sign, powers and signed terms over
    numbers, variables and i, with whitespace between the tokens."""
    rule = pick(range(7)) if depth else 0
    if rule <= 1:
        return pick(ATOMS)
    inner = [grammar_text(pick, depth - 1) for _ in range(1 + (rule == 2))]
    if rule == 2:
        return inner[0] + pick(SPACES) + pick("+-*") + pick(SPACES) + inner[1]
    if rule == 3:
        return "(" + pick(["", "-", "+", " - "]) + inner[0] + pick(SPACES) + ")"
    if rule == 4:
        return inner[0] + pick(SPACES) + "^" + pick(SPACES) + pick(EXPONENTS)
    return pick(["-", "+", "- "]) + inner[0]


def text_from(rng) -> str:
    """A grammar text of rng's choosing with up to two characters inserted,
    deleted or replaced; or, one time in eight, a short string of grammar
    characters and look-alikes."""
    def pick(options):
        return options[rng.randrange(len(options))]

    if pick(range(8)) == 0:
        return "".join(pick(GARBAGE) for _ in range(pick(range(9))))
    text = grammar_text(pick)
    for _ in range(pick([0, 0, 1, 2])):
        where, edit, ch = pick(range(len(text) + 1)), pick(range(3)), pick(GARBAGE)
        text = text[:where] + ("" if edit == 1 else ch) + text[where + (edit != 0):]
    return text


class TestParserMatchesReference:
    # 400 examples of 25 texts: 10 000 texts, each at d = 1, 2 and 3
    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=True))
    def test_same_language_and_bit_identical_coefficients(self, rng):
        for text in (text_from(rng) for _ in range(25)):
            for d in (1, 2, 3):
                try:
                    want = bits(ReferenceParser(text, d).parse())
                except ValueError:        # ParseError, or int() of a non-ASCII digit
                    want = None
                try:
                    got = bits(parse_poly(text, d))
                except ParseError as exc:
                    assert 0 <= exc.position <= len(text), (text, d, exc)
                    if "may exceed" in str(exc):     # the power and product caps
                        assert want is not None, (text, d)
                        continue
                    got = None
                assert got == want, (text, d)


class TestParserBoundaries:
    def test_any_nesting_depth(self):
        # the recursive parser raised RecursionError from about 330 levels on
        deep = "(" * 100_000 + "x1" + ")" * 100_000
        assert parse_poly(deep, 1).coeffs == {(1,): 1.0 + 0j}
        with pytest.raises(ParseError) as err:
            parse_poly(deep[:-1], 1)
        assert err.value.position == len(deep) - 1

    @pytest.mark.parametrize("text,position", [("x1\u00b2", 2), ("x\u00b2", 1),
                                               ("x1^\u00b2", 3), ("\u00b2", 0)])
    def test_non_ascii_digit_is_a_parse_error(self, text, position):
        # the reference raises a bare ValueError from int() on the first three
        with pytest.raises(ParseError) as err:
            parse_poly(text, 1)
        assert err.value.position == position

    @pytest.mark.parametrize("text", ["x1^" + "9" * 5000, "x" + "1" * 5000])
    def test_integer_past_the_digit_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_poly(text, 1)


class TestPowerCap:
    def test_power_over_the_cap_is_refused_at_the_caret(self):
        start = time.perf_counter()
        for text, t, k in (("(x1+x2+x3+1)^200", 4, 200), ("(x1+x2+x3+1)^28", 4, 28),
                           ("(x1 + 1) ^ 4096", 2, 4096)):
            with pytest.raises(ParseError) as err:
                parse_poly(text, 3)
            assert err.value.position == text.index("^")
            assert math.comb(k + t - 1, t - 1) > MAX_COUNT
        assert time.perf_counter() - start < 1.0

    def test_power_under_the_cap_parses(self):
        # C(23, 3) = 1771 terms, as many as the power has
        P = parse_poly("(x1+x2+x3+1)^20", 3)
        assert len(P.coeffs) == math.comb(23, 3) <= MAX_COUNT
        assert P.coeffs[(0, 0, 0)] == 1 and P.coeffs[(20, 0, 0)] == 1

    def test_product_over_the_cap_is_refused_at_its_star(self):
        # (x1+1)^400 has 401 terms, so the product would have 160 801
        for text, d in (("(x1+1)^400*(x2+1)^400", 2), ("(x1+1)^64 * (x2+1)^64", 2),
                        ("x1 + (x1+x2+x3+1)^15*(x1+x2+x3+1)^15 - 1", 3)):
            with pytest.raises(ParseError, match="product may exceed 4096 terms") as err:
                parse_poly(text, d)
            assert err.value.position == text.index("*")

    def test_product_under_the_degree_bound_parses(self):
        # 65 x 65 term pairs, but only 129 monomials of degree <= 128 in x1
        P = parse_poly("(x1+1)^64*(x1+1)^64", 1)
        assert len(P.coeffs) == 129 and P.coeffs[(128,)] == 1
        assert len(parse_poly("(x1+x2+1)^15*(x1+x2+1)^15", 2).coeffs) == math.comb(32, 2)

    def test_monomial_and_zero_powers_are_not_capped(self):
        assert parse_poly("x1^100000", 1).coeffs == {(100000,): 1.0 + 0j}
        assert parse_poly("(i*x1*x2)^5000", 2).coeffs == {(5000, 5000): 1.0 + 0j}
        with pytest.raises(ParseError, match="not finite"):   # 2^5000 is past the double range
            parse_poly("(2*i*x1*x2)^5000", 2)
        assert parse_poly("(0*x1)^99999", 1).is_zero
