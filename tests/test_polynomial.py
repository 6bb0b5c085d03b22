import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given

from poleint import Poly
from poleint.polynomial import (
    _LEAF_DIGITS,
    _SPLIT_BITS,
    _power_of_five,
    _power_of_two,
    format_quotient,
)

from conftest import polys, nonzero_polys, rationals, root_tuples
from oracles import gcd, is_squarefree, poly_divmod, poly_mod


def P(*coeffs):
    return Poly(coeffs)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero

    def test_zero_degree_is_minus_one(self):
        assert Poly().degree == -1
        assert Poly((1,)).degree == 0
        assert Poly((0, 1)).degree == 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            P(0.5)

    def test_string_coefficients(self):
        assert P("1/2", 1) == P(F(1, 2), 1)


class TestArithmeticFixtures:
    def test_add_cancels_constants(self):
        # (z - 1) + (z + 1) = 2z
        assert P(-1, 1) + P(1, 1) == P(0, 2)

    def test_add_identity(self):
        p = P(3, -2, 1)
        assert p + Poly() == p

    def test_add_renormalizes_leading_cancellation(self):
        # z^2 + (-z^2 + z) = z
        assert P(0, 0, 1) + P(0, 1, -1) == Poly((0, 1))

    def test_mul_monomial(self):
        assert Poly((0, 1)) * P(-1, 1) == P(0, -1, 1)

    def test_mul_identity(self):
        p = P(2, 0, 5)
        assert p * Poly((1,)) == p

    def test_mul_expansion(self):
        # (z - 1)(z - 2) = z^2 - 3z + 2, by schoolbook convolution
        assert P(-1, 1) * P(-2, 1) == P(2, -3, 1)

    def test_scalar_mul(self):
        assert P(1, 2) * 3 == P(3, 6)

    def test_pow(self):
        assert P(1, 1) ** 2 == P(1, 2, 1)
        assert P(0, 1) ** 0 == Poly((1,))
        with pytest.raises(ValueError):
            P(1, 1) ** -1


class TestDerivativeAndEval:
    def test_derivative_cubic(self):
        # z^3 - 3z^2 + 2z differentiates term by term
        assert P(0, 2, -3, 1).derivative() == P(2, -6, 3)

    def test_derivative_constant(self):
        assert P(5).derivative() == Poly()

    def test_derivative_of_z_is_one(self):
        assert Poly((0, 1)).derivative() == Poly((1,))

    @pytest.mark.parametrize(
        "x,expected", [(0, F(2)), (1, F(-1)), (2, F(2))]
    )
    def test_eval_q_prime(self, x, expected):
        qprime = P(2, -6, 3)
        assert qprime(x) == expected


class TestFromRoots:
    def test_two_roots_with_zero(self):
        assert Poly.from_roots([0, 1, 2]) == P(0, 2, -3, 1)

    def test_empty_roots_with_zero(self):
        assert Poly.from_roots([0]) == Poly((0, 1))

    def test_single_root(self):
        a = F(5, 7)
        assert Poly.from_roots([a]) == P(-a, 1)


class TestGcdAndSquarefree:
    def test_gcd_divisor_case(self):
        assert gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_gcd_coprime_linear(self):
        assert gcd(Poly((0, 1)), P(-1, 1)) == Poly((1,))

    def test_gcd_certifies_squarefree_cubic(self):
        q = P(0, 2, -3, 1)
        assert gcd(q, q.derivative()) == Poly((1,))

    def test_gcd_both_zero_raises(self):
        with pytest.raises(ValueError):
            gcd(Poly(), Poly())

    def test_gcd_is_monic(self):
        assert gcd(P(-2, 2), P(-4, 4)) == P(-1, 1)

    def test_squarefree(self):
        assert is_squarefree(P(0, 2, -3, 1))
        assert not is_squarefree(P(0, 0, 1))
        assert is_squarefree(Poly((0, 1)))

    def test_squarefree_zero_raises(self):
        with pytest.raises(ValueError):
            is_squarefree(Poly())


class TestRingProperties:
    @given(polys, polys)
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polys, polys)
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys, polys)
    def test_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, polys)
    def test_degree_of_product_adds(self, p, q):
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys)
    def test_leibniz_rule(self, p, q):
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(polys, polys)
    def test_derivative_is_linear(self, p, q):
        assert (p + q).derivative() == p.derivative() + q.derivative()

    @given(root_tuples)
    def test_from_roots_vanishes_at_roots(self, roots):
        p = Poly.from_roots([0, *roots])
        assert p(0) == 0
        for a in roots:
            assert p(a) == 0

    @given(polys, polys, rationals)
    def test_results_stay_reduced(self, p, q, x):
        for value in (p * q)(x), (p + q)(x):
            assert value.denominator > 0
            # Fraction stores reduced form; re-reducing changes nothing
            assert F(value.numerator, value.denominator) == value

    @given(polys, nonzero_polys)
    def test_divmod(self, p, d):
        quot, rem = poly_divmod(p, d)
        assert quot * d + rem == p
        assert rem.is_zero or rem.degree < d.degree

    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, p, q):
        g = gcd(p, q)
        assert poly_mod(p, g).is_zero
        assert poly_mod(q, g).is_zero
        assert g.coefficients[-1] == 1


# Integers of at most 2*S bits print by divmod on the powers of ten
# 10^(L * 2^i), str taking the leaves of at most 1994 bits; larger ones split
# on bits and join in Decimal on the powers 2^(S * 2^i).  The edges, in both
# signs: both sides of the widest leaf, of 2*S bits and of every power of ten
# the ladder divides by (10^(2L) among them), both sides of the powers of two
# 2^(2^11) .. 2^(2^18), every 2^(S * 2^i) up to about 300k bits among them,
# and a 90k-bit value.
_S, _L = _SPLIT_BITS, _LEAF_DIGITS
_EDGES = [pytest.param(x, id=str(x)) for x in (0, 1, 2**30)]
_EDGES += [
    pytest.param((1 << (bits - 1)) | 1, id=f"{bits}-bits")
    for bits in (1994, 1995, 4095, 4096, 4097, 2 * _S - 1, 2 * _S, 2 * _S + 1)
]
_EDGES += [
    pytest.param(10**k + e, id=f"10^{k}{e:+d}")
    for k in (_L << i for i in range(6))
    for e in (-1, 0, 1)
]
_EDGES += [
    pytest.param(2**k + e, id=f"2^{k}{e:+d}")
    for k in (2**11 << i for i in range(8))
    for e in (-1, 0, 1)
]
_EDGES += [pytest.param(random.Random(90).getrandbits(90_000) | 1 << 89_999, id="90k-bits")]


class TestNumeratorPrinting:
    @pytest.mark.parametrize("x", _EDGES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_prints_as_decimal_of_the_whole_integer(self, x, sign):
        assert format_quotient(sign * x) == str(Decimal(sign * x))

    def test_the_ladder_stops_at_level_4(self):
        # the largest integer that prints by divmod alone reaches 5^(L * 16)
        _power_of_five.cache_clear()
        x = (1 << 2 * _S) - 1
        assert format_quotient(x) == str(Decimal(x))
        assert _power_of_five.cache_info().currsize == 5

    def test_random_sizes_and_both_slots(self):
        rng = random.Random(7)
        for _ in range(40):
            x = rng.getrandbits(rng.randrange(1, 40_000)) or 1
            assert format_quotient(-x) == str(Decimal(-x))
            assert format_quotient(-x, x + 2) == f"{Decimal(-x)}/{Decimal(x + 2)}"

    def test_threads_share_the_power_table(self):
        # every thread grows the emptied tables at once; a level stored under
        # the wrong index would print a wrong digit string
        values = [random.Random(i).getrandbits(30_000 + 9_000 * i) for i in range(8)]
        want = [str(Decimal(x)) for x in values]
        got = [None] * len(values)

        def convert(i):
            got[i] = format_quotient(values[i])

        _power_of_five.cache_clear()
        _power_of_two.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=convert, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
