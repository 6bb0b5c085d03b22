import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
import hypothesis.strategies as st

from poleint import (
    InvZSeries,
    NotIntegrableInRing,
    Poly,
    RootConfig,
    partial_fractions,
)
from poleint.asymptotics import evaluate_all

from conftest import rationals, nonzero_rationals
from oracles import (
    as_series,
    derivative,
    inverse_linear,
    mul_z_power,
    series_mul,
    truncate,
    valuation,
)


def S(*coeffs):
    return InvZSeries(len(coeffs) - 1, coeffs)


series_values = st.lists(rationals, min_size=1, max_size=10).map(lambda cs: S(*cs))


class TestConstruction:
    def test_length_must_match_truncation(self):
        with pytest.raises(ValueError):
            InvZSeries(3, (F(1),))

    def test_truncate(self):
        assert truncate(S(1, 2, 3), 1) == S(1, 2)
        with pytest.raises(ValueError):
            truncate(S(1, 2), 5)


class TestAddition:
    def test_identity(self):
        f = S(1, 2, 3)
        assert f + S(0, 0, 0) == f

    def test_cancellation(self):
        assert valuation((S(0, 1) + S(0, -1)).coefficients) == math.inf

    def test_truncation_is_information_minimum(self):
        f = InvZSeries(8, (0,) * 9)
        g = InvZSeries(16, (0,) * 17)
        assert (f + g).truncation == 8


class TestMultiplication:
    def test_difference_of_squares(self):
        one_plus = S(1, 1, 0)
        one_minus = S(1, -1, 0)
        assert series_mul(one_plus, one_minus) == S(1, 0, -1)

    def test_identity(self):
        f = S(2, 3, 4)
        one = S(1, 0, 0)
        assert series_mul(f, one) == f

    def test_scalar(self):
        assert S(1, 2) * F(1, 2) == S(F(1, 2), 1)
        assert S(1, 2) * 2 == S(2, 4)

    def test_window_gains_from_valuation(self):
        # f known to 8, g has valuation 2 and window 16: the unknown tail of
        # f enters at order 9 + 2, so the product is good through order 10.
        f = S(*[1] * 9)
        g = InvZSeries(16, (0, 0, 1) + (0,) * 14)
        assert series_mul(f, g).truncation == 10

    @given(series_values, series_values)
    def test_commutes(self, f, g):
        assert series_mul(f, g) == series_mul(g, f)

    @given(series_values, series_values)
    def test_valuations_add(self, f, g):
        vf, vg = valuation(f.coefficients), valuation(g.coefficients)
        p = series_mul(f, g)
        if vf != math.inf and vg != math.inf and vf + vg <= p.truncation:
            assert valuation(p.coefficients) == vf + vg

    @given(series_values, series_values)
    def test_leibniz_rule(self, f, g):
        lhs = derivative(series_mul(f, g))
        rhs = series_mul(derivative(f), g) + series_mul(f, derivative(g))
        assert lhs.agrees_with(rhs)


class TestCalculus:
    def test_derivative_power_rule(self):
        assert derivative(S(0, 1)) == S(0, 0, -1)

    def test_derivative_of_constant(self):
        assert derivative(S(7)) == S(0, 0)

    def test_derivative_fixture(self):
        assert derivative(S(0, 0, F(-1, 2))) == S(0, 0, 0, 1)

    def test_derivative_gains_one_order(self):
        assert derivative(S(1, 2, 3)).truncation == 3

    def test_antiderivative_power_rule(self):
        assert S(0, 0, 0, 1).antiderivative() == S(0, 0, F(-1, 2))

    def test_antiderivative_of_zero(self):
        assert S(0, 0, 0, 0, 0).antiderivative() == S(0, 0, 0, 0)

    def test_logarithmic_obstruction(self):
        with pytest.raises(NotIntegrableInRing, match="logarithm"):
            S(0, 1, 0).antiderivative()

    def test_constant_obstruction(self):
        with pytest.raises(NotIntegrableInRing):
            S(1, 0, 0).antiderivative()

    def test_tiny_window_cannot_certify(self):
        with pytest.raises(ValueError):
            S(0).antiderivative()

    @given(st.lists(rationals, max_size=8))
    def test_round_trip(self, tail):
        f = S(0, 0, *tail)
        g = f.antiderivative()
        assert g.coefficients[0] == 0
        assert derivative(g).agrees_with(f)


class TestValuation:
    # the oracle `valuation`, read off plain coefficient tuples
    def test_first_nonzero_index(self):
        assert valuation((0, 0, 0, 1, 0, 1)) == 3

    def test_zero_series(self):
        assert valuation((0, 0, 0, 0, 0, 0)) == math.inf
        assert valuation(()) == math.inf

    def test_constant_term_counts(self):
        assert valuation((5, 1)) == 0


class TestInverseLinear:
    def test_zero_root(self):
        assert inverse_linear(0, 3) == S(0, 1, 0, 0)

    def test_geometric_one(self):
        assert inverse_linear(1, 4) == S(0, 1, 1, 1, 1)

    def test_geometric_two(self):
        assert inverse_linear(2, 3) == S(0, 1, 2, 4)

    @given(rationals)
    def test_multiplying_back_gives_inverse_z(self, a):
        f = inverse_linear(a, 8)
        one_minus = S(1, -a, *[0] * 7)
        assert series_mul(one_minus, f).agrees_with(S(0, 1, 0, 0, 0, 0, 0, 0, 0))

    @given(rationals)
    def test_z_shift_recovers_one(self, a):
        f = inverse_linear(a, 8)
        one_minus = S(1, -a, *[0] * 7)
        assert mul_z_power(series_mul(one_minus, f), 1) == S(1, *[0] * 7)


class TestLogFactor:
    def test_zero_root_is_zero_series(self):
        assert InvZSeries.log_factor(0, 5) == S(0, 0, 0, 0, 0, 0)

    def test_unit_root(self):
        assert InvZSeries.log_factor(1, 3) == S(0, -1, F(-1, 2), F(-1, 3))

    def test_derivative_contract_fixture(self):
        # L(2)' must match 2/(z(z-2)) = 2 * inverse_linear(2) / z
        lhs = derivative(InvZSeries.log_factor(2, 6))
        rhs = mul_z_power(inverse_linear(2, 6) * 2, -1)
        assert lhs.agrees_with(rhs)

    @given(rationals)
    def test_derivative_contract(self, a):
        lhs = derivative(InvZSeries.log_factor(a, 8))
        rhs = mul_z_power(inverse_linear(a, 8) * a, -1)
        assert lhs.agrees_with(rhs)

    @given(rationals)
    def test_derivative_times_argument(self, a):
        # L(a)' * (1 - a/z) telescopes to a/z^2
        lhs = derivative(InvZSeries.log_factor(a, 8))
        arg = S(1, -a, *[0] * 8)
        expected = S(0, 0, a, *[0] * 7)
        assert series_mul(lhs, arg).agrees_with(expected)


class TestFromRational:
    def test_cubic_fixture(self):
        q = Poly((0, 2, -3, 1))
        f = InvZSeries.from_rational(Poly((1,)), q, 6)
        assert f == S(0, 0, 0, 1, 3, 7, 15)

    def test_inverse_z(self):
        assert InvZSeries.from_rational(Poly((1,)), Poly((0, 1)), 4) == S(0, 1, 0, 0, 0)

    @given(rationals)
    def test_matches_inverse_linear(self, a):
        den = Poly((-a, 1))
        lhs = InvZSeries.from_rational(Poly((1,)), den, 8)
        assert lhs == inverse_linear(a, 8)

    def test_degree_error(self):
        with pytest.raises(ValueError, match="degree"):
            InvZSeries.from_rational(Poly((0, 1)), Poly((0, 1)), 4)

    def test_zero_denominator_error(self):
        with pytest.raises(ValueError, match="nonzero"):
            InvZSeries.from_rational(Poly((1,)), Poly(), 4)

    def test_non_monic_denominator_normalized(self):
        lhs = InvZSeries.from_rational(Poly((1,)), Poly((0, 2)), 4)
        assert lhs == S(0, F(1, 2), 0, 0, 0)
        lhs = InvZSeries.from_rational(Poly((1, 3)), Poly((0, 0, 2)), 4)
        assert lhs == S(0, F(3, 2), F(1, 2), 0, 0)

    @given(st.lists(nonzero_rationals, min_size=1, max_size=4, unique=True))
    def test_matches_partial_fraction_sum(self, roots):
        cfg = RootConfig(tuple(roots))
        q = Poly.from_roots([0, *cfg.roots])
        direct = InvZSeries.from_rational(Poly((1,)), q, 10)
        assert direct == as_series(partial_fractions(Poly((1,)), cfg), 10)


class TestZPowerShift:
    def test_shift_down_pads(self):
        assert mul_z_power(S(1, 2), -2) == S(0, 0, 1, 2)

    def test_shift_up_requires_leading_zeros(self):
        assert mul_z_power(S(0, 0, 5), 2) == S(5)
        with pytest.raises(ValueError, match="positive powers"):
            mul_z_power(S(1, 0), 1)

    def test_shift_up_window_exhausted(self):
        with pytest.raises(ValueError, match="window"):
            mul_z_power(S(0, 0), 2)


# points in four binades of |z|, and a series to sum at them
_BINADE_SERIES = S(0, F(1, 3), F(-2, 7), F(5, 11), F(-1, 9), F(7, 13))
_BINADE_POINTS = [8 * cmath.exp(2j * cmath.pi * k / 16) for k in range(16)]
_BINADE_POINTS += [math.nextafter(8.0, 0) * 1j, 3 - 4j, 0.1 + 0.2j, -1e-3]


class TestEvaluate:
    def test_matches_direct_sum(self):
        f = S(0, 0, F(-1, 2), -1)
        z = 4 + 1j
        expected = -0.5 * z**-2 - z**-3
        assert abs(f.evaluate(z) - expected) < 1e-15

    @pytest.mark.parametrize("z", [1.5e308, -1.7e308j, 1.2e308 * cmath.exp(1j)])
    def test_point_beyond_two_to_the_1023(self, z):
        # 2^e would overflow at |z| >= 2^1023, so the exponent is capped there
        value = S(0, 1).evaluate(z)
        assert cmath.isclose(value, 1 / z, rel_tol=1e-12)

    def test_all_points_match_plain_horner_bit_for_bit(self):
        # evaluate_all rounds the coefficients once per binade of |z|; points
        # in several binades must each get their own rounding, and every sum
        # equal plain Horner in 1/z exactly (scaling by 2^e is exact)
        f, points = _BINADE_SERIES, _BINADE_POINTS
        assert len({math.frexp(abs(z))[1] for z in points}) == 4

        def horner(z):
            acc = 0j
            for c in reversed(f.coefficients):
                acc = acc * (1 / z) + float(c)
            return acc

        want = [horner(z) for z in points]
        assert list(evaluate_all(f.coefficients, points)) == want
        assert [f.evaluate(z) for z in points] == want

    def test_evaluate_is_the_one_point_evaluate_all_bit_for_bit(self):
        # the series type keeps no Horner of its own: one point, one value
        for z in _BINADE_POINTS:
            value, = evaluate_all(_BINADE_SERIES.coefficients, (z,))
            assert repr(_BINADE_SERIES.evaluate(z)) == repr(value)

    def test_equality_only_on_shared_window(self):
        assert S(1, 2).agrees_with(S(1, 2, 3))
        assert not S(1, 2).agrees_with(S(1, 3, 3))
