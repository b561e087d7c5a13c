"""Exact algebra layer: polynomials, rational functions, polynomial matrices,
and the test-only reference algebra over them (`refalgebra`)."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penney.polyalg import ONE, S, Polynomial, RationalFunction
from refalgebra import (
    ZERO,
    PolyMatrix,
    SingularAtOriginError,
    coefficient,
    degree,
    derivative,
    determinant,
    determinant_cofactor,
    divide,
    exact_div,
    rational_derivative,
    series,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
polys = st.builds(Polynomial, st.lists(rationals, max_size=5))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def assert_normalized(value: F) -> None:
    assert value.denominator > 0
    assert math.gcd(abs(value.numerator), value.denominator) == 1


class TestPolynomial:
    def test_difference_of_squares(self):
        assert Polynomial([1, 1]) * Polynomial([1, -1]) == Polynomial([1, 0, -1])

    def test_additive_identity(self):
        p = Polynomial([F(1, 3), 0, 2])
        assert p + ZERO == p

    def test_monomial_product(self):
        half_s = Polynomial([0, F(1, 2)])
        assert half_s * half_s == Polynomial([0, 0, F(1, 4)])

    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Polynomial([0, 0]).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert degree(Polynomial()) == -1
        assert degree(Polynomial([5])) == 0
        assert degree(S) == 1

    def test_eval_affine_at_one(self):
        assert Polynomial([1, F(1, 2)]).evaluate(1) == F(3, 2)

    def test_eval_at_zero_is_constant_coefficient(self):
        p = Polynomial([F(2, 7), 3, -1])
        assert p.evaluate(0) == F(2, 7)

    def test_eval_overlap_entry_at_one(self):
        # q*s + p*q*s^2 at p = q = 1/2 evaluates to 3/4 at s = 1
        p = Polynomial([0, F(1, 2), F(1, 4)])
        assert p.evaluate(1) == F(3, 4)

    def test_exact_div_rejects_inexact(self):
        with pytest.raises(ArithmeticError):
            exact_div(Polynomial([1, 0, 1]), Polynomial([1, 1]))

    def test_difference_with_a_scalar(self):
        assert S - 1 == Polynomial([-1, 1])
        assert S - F(1, 2) == Polynomial([F(-1, 2), 1])
        assert 1 - S == Polynomial([1, -1])
        for other in ([1], 2.0, None):
            with pytest.raises(TypeError):
                S - other

    def test_zero_prints_as_zero(self):
        assert str(Polynomial()) == "0"
        assert str(S - S) == "0"

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Polynomial([0.5])

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_divmod_roundtrip(self, a, b):
        q, r = divide(a, b)
        assert q * b + r == a
        assert degree(r) < degree(b)
        assert exact_div(a * b, b) == a

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_derivative_product_rule(self, a, b):
        assert derivative(a * b) == derivative(a) * b + a * derivative(b)

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_results_stay_normalized(self, a, b):
        for c in ((a * b) + (a - b)).coeffs:
            assert_normalized(c)
        assert_normalized(a.evaluate(F(2, 3)))


class TestRationalFunction:
    def test_series_of_monomial(self):
        assert series(RationalFunction(S), 3) == [0, 1, 0, 0]

    def test_series_geometric(self):
        f = RationalFunction(ONE, ONE - S)
        assert series(f, 3) == [1, 1, 1, 1]

    def test_series_singular_at_origin(self):
        with pytest.raises(SingularAtOriginError):
            series(RationalFunction(ONE, S), 2)

    def test_derivative_power_rule(self):
        d = rational_derivative(RationalFunction(S * S))
        assert d.numer == 2 * S and d.denom == ONE

    def test_derivative_quotient_rule(self):
        d = rational_derivative(RationalFunction(ONE, ONE - S))
        assert d.numer == ONE
        assert d.denom == (ONE - S) * (ONE - S)

    def test_derivative_of_constant(self):
        assert rational_derivative(RationalFunction(Polynomial([F(3, 7)]))).numer == ZERO

    @given(st.lists(rationals, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_series(self, num_coeffs, den_coeffs):
        # term by term: the k-th Taylor coefficient of f' is (k + 1) c_{k+1}
        denom = Polynomial(den_coeffs)
        if coefficient(denom, 0) == 0:
            denom = denom + 1
        f = RationalFunction(Polynomial(num_coeffs), denom)
        n = 6
        coefficients = series(f, n + 1)
        assert series(rational_derivative(f), n) == [
            (k + 1) * coefficients[k + 1] for k in range(n + 1)
        ]

    def test_scalar_numerator(self):
        geometric = RationalFunction(1, ONE - S)
        assert geometric.numer == ONE
        assert geometric.evaluate(F(1, 2)) == 2

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, ZERO)

    def test_evaluate_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, ONE - S).evaluate(1)

    @given(st.lists(rationals, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_series_recomposition(self, num_coeffs, den_coeffs):
        numer = Polynomial(num_coeffs)
        denom = Polynomial(den_coeffs)
        if coefficient(denom, 0) == 0:
            denom = denom + 1
        n = 8
        coefficients = series(RationalFunction(numer, denom), n)
        recomposed = Polynomial(coefficients) * denom
        for k in range(n + 1):
            assert coefficient(recomposed, k) == coefficient(numer, k)
        for c in coefficients:
            assert_normalized(c)


def random_matrix(rng: random.Random, dim: int, max_degree: int = 3) -> PolyMatrix:
    def entry():
        return Polynomial(
            [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, max_degree + 1))]
        )

    return PolyMatrix([[entry() for _ in range(dim)] for _ in range(dim)])


class TestPolyMatrix:
    def test_identity_determinant(self):
        assert determinant(PolyMatrix.identity(3)) == ONE

    def test_replace_column(self):
        replaced = PolyMatrix.identity(2).replace_column(1, [ONE, ONE])
        assert replaced.rows == ((ONE, ZERO), (ONE, ONE))

    def test_replace_column_idempotent(self):
        m = PolyMatrix([[S, ONE], [ONE, S]])
        column = [Polynomial([2]), Polynomial([3])]
        once = m.replace_column(2, column)
        assert once.replace_column(2, column) == once

    def test_replace_column_out_of_range(self):
        with pytest.raises(IndexError):
            PolyMatrix.identity(2).replace_column(3, [ONE, ONE])
        with pytest.raises(IndexError):
            PolyMatrix.identity(2).replace_column(0, [ONE, ONE])

    def test_replace_column_leaves_original(self):
        m = PolyMatrix.identity(2)
        m.replace_column(1, [S, S])
        assert m == PolyMatrix.identity(2)

    def test_must_be_square(self):
        with pytest.raises(ValueError):
            PolyMatrix([[ONE, ZERO]])
        with pytest.raises(ValueError):
            PolyMatrix([])

    def test_bareiss_matches_cofactor(self):
        rng = random.Random(20240501)
        for _ in range(120):
            m = random_matrix(rng, rng.randint(1, 4))
            assert determinant(m) == determinant_cofactor(m)

    def test_bareiss_handles_zero_pivots(self):
        m = PolyMatrix([[ZERO, ONE], [ONE, ZERO]])
        assert determinant(m) == Polynomial([-1])
        singular = PolyMatrix([[ZERO, ZERO], [ONE, S]])
        assert determinant(singular) == ZERO

    def test_determinant_multilinear_in_columns(self):
        rng = random.Random(77)
        for _ in range(40):
            dim = rng.randint(1, 4)
            m = random_matrix(rng, dim)
            u = [random_matrix(rng, 1).rows[0][0] for _ in range(dim)]
            v = [random_matrix(rng, 1).rows[0][0] for _ in range(dim)]
            j = rng.randint(1, dim)
            combined = determinant(m.replace_column(j, [a + b for a, b in zip(u, v)]))
            split = determinant(m.replace_column(j, u)) + determinant(m.replace_column(j, v))
            assert combined == split
