import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import poleint.integrate
from poleint import (
    InvZSeries,
    Poly,
    RootConfig,
    check_moment_identities,
    complete_homogeneous,
    decomposes,
    integrate_via_expansion,
    integrate_via_partial_fractions,
    moment,
    partial_fractions,
)

from conftest import nonzero_rationals, random_fraction, random_root_config, root_configs
from oracles import (closed_form, closed_form_coefficient, decomposes_in_fractions,
                     derivative, is_squarefree, partial_fractions_by_evaluation,
                     reconstructed_numerator, valuation)


class TestRootConfig:
    def test_duplicate_roots_rejected(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            RootConfig((1, 1))

    def test_zero_root_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            RootConfig((0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RootConfig(())

    def test_q_and_polynomial(self):
        cfg = RootConfig((1, 2))
        assert cfg.q == 2
        assert Poly.from_roots([0, *cfg.roots]) == Poly((0, 2, -3, 1))

    @given(root_configs)
    def test_polynomial_is_squarefree(self, cfg):
        assert is_squarefree(Poly.from_roots([0, *cfg.roots]))


class TestPartialFractions:
    def test_pair_fixture(self):
        pf = partial_fractions(Poly((1,)), RootConfig((1, 2)))
        assert pf == ((0, F(1, 2)), (1, -1), (2, F(1, 2)))

    def test_single_root_dipole_pair(self):
        a = F(5, 7)
        pf = partial_fractions(Poly((1,)), RootConfig((a,)))
        assert pf == ((0, -1 / a), (a, 1 / a))

    def test_numerator_z_kills_pole_at_zero(self):
        pf = partial_fractions(Poly((0, 1)), RootConfig((1, 2)))
        assert pf == ((0, 0), (1, -1), (2, 1))

    def test_degree_too_large(self):
        with pytest.raises(ValueError, match="degree"):
            partial_fractions(Poly((0, 0, 0, 1)), RootConfig((1, 2)))

    def test_result_is_a_tuple_of_pairs(self):
        pf = partial_fractions(Poly((1,)), RootConfig((1, F(-1, 2))))
        assert type(pf) is tuple
        assert [(type(pair), len(pair)) for pair in pf] == [(tuple, 2)] * 3
        assert all(type(x) is F for pair in pf for x in pair)

    def test_unit_numerator_coefficients_sum_to_zero(self):
        pf = partial_fractions(Poly((1,)), RootConfig((F(3, 5), -2, 7)))
        assert sum(c for _, c in pf) == 0

    @given(root_configs, st.lists(nonzero_rationals, max_size=6))
    @settings(max_examples=60)
    def test_decomposition(self, cfg, num_coeffs):
        numerator = Poly(num_coeffs[: cfg.q + 1])  # keep deg P < deg Q
        pf = partial_fractions(numerator, cfg)
        assert decomposes(numerator, pf)

    SIX_ROOTS = RootConfig((F(1, 3), -2, F(5, 7), 4, F(-9, 2), F(11, 13)))
    DEGREE_FIVE = Poly((7, F(-2, 5), 0, 1, F(3, 4), -6))

    # The check evaluates the numerator and each Q'(pole) itself: it shares
    # no Poly arithmetic and no pole differences with partial_fractions.
    def test_decomposition_calls_no_poly_method(self, monkeypatch):
        pf = partial_fractions(self.DEGREE_FIVE, self.SIX_ROOTS)

        def refuse(*args):
            raise AssertionError("called a Poly method or the pole differences")

        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__call__",
                     "__eq__", "derivative", "from_roots"):
            monkeypatch.setattr(Poly, name, refuse)
        monkeypatch.setattr(poleint.integrate, "_pole_differences", refuse)
        assert decomposes(self.DEGREE_FIVE, pf)
        assert not decomposes(self.DEGREE_FIVE, ((0, pf[0][1] + 1), *pf[1:]))

    # poles 0 (first), a_3 (middle) and a_6 (last)
    @pytest.mark.parametrize("index", [0, 3, 6])
    def test_decomposition_sees_a_changed_coefficient(self, index):
        terms = list(partial_fractions(self.DEGREE_FIVE, self.SIX_ROOTS))
        pole, c = terms[index]
        terms[index] = (pole, c + 1)
        assert not decomposes(self.DEGREE_FIVE, terms)

    # Against the reference rebuild sum_j c_j prod_(k != j) (z - p_k): the
    # pointwise check gives its answer on partial_fractions' own terms and
    # with one coefficient perturbed, by a random step or by a tiny one.
    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_is_the_rebuilt_numerator_check(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            cfg = random_root_config(rng, rng.randint(1, 7), bound=rng.choice((9, 10**6)))
            degree = rng.randint(-1, cfg.q)  # -1: the zero numerator
            numerator = Poly(random_fraction(rng) for _ in range(degree + 1))
            terms = list(partial_fractions(numerator, cfg))
            cases = [terms]
            for step in (random_fraction(rng), F(1, 2**64 + 1)):
                index = rng.randrange(len(terms))
                changed = list(terms)
                changed[index] = (terms[index][0], terms[index][1] + step)
                cases.append(changed)
            for case in cases:
                assert decomposes(numerator, case) == (
                    reconstructed_numerator(case) == numerator)
            assert decomposes(numerator, terms) and not decomposes(numerator, cases[1])

    # Against the same pointwise identity in Fractions on the poles: the check
    # on integers gives its answer on partial_fractions' own terms, with one
    # coefficient moved, and against a numerator with one coefficient moved.
    # partial_fractions, which evaluates each numerator on integers, gives the
    # terms of the Fraction Horner reference for both numerators.
    @pytest.mark.parametrize("seed", range(4))
    def test_decomposition_is_the_fraction_check(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(50):
            cfg = random_root_config(rng, rng.randint(1, 8), bound=rng.choice((9, 10**6)))
            degree = rng.randint(-1, cfg.q)  # -1: the zero numerator
            coefficients = [random_fraction(rng) for _ in range(degree + 1)]
            numerator = Poly(coefficients)
            terms = list(partial_fractions(numerator, cfg))
            index = rng.randrange(len(terms))
            moved = list(terms)
            moved[index] = (terms[index][0],
                            terms[index][1] + rng.choice((random_fraction(rng), F(1, 3**41))))
            if coefficients:
                coefficients[rng.randrange(len(coefficients))] += F(1, 2**64 + 1)
            for candidate, case in ((numerator, terms), (numerator, moved),
                                    (Poly(coefficients), terms)):
                assert decomposes(candidate, case) == decomposes_in_fractions(candidate, case)
                assert partial_fractions(candidate, cfg) == (
                    partial_fractions_by_evaluation(candidate, cfg))
            assert decomposes(numerator, terms) and not decomposes(numerator, moved)


class TestMoments:
    @pytest.mark.parametrize("k,expected", [(0, 0), (1, 0), (2, 1), (3, 3), (4, 7)])
    def test_pair_fixture(self, k, expected):
        assert moment(RootConfig((1, 2)), k) == expected

    def test_single_root_family(self):
        a = F(4, 3)
        cfg = RootConfig((a,))
        assert moment(cfg, 0) == 0
        assert moment(cfg, 1) == 1
        assert moment(cfg, 2) == a
        assert moment(cfg, 3) == a * a

    @given(root_configs)
    def test_moment_q_is_always_one(self, cfg):
        assert moment(cfg, cfg.q) == 1


class TestMomentIdentities:
    def test_pair_report(self):
        rows = check_moment_identities(RootConfig((1, 2)), 6)
        assert all(lhs == rhs for _, lhs, rhs in rows)
        assert [lhs for _, lhs, _ in rows] == [0, 0, 1, 3, 7, 15, 31]

    def test_single_root_report(self):
        a = F(4, 3)
        rows = check_moment_identities(RootConfig((a,)), 3)
        assert all(lhs == rhs for _, lhs, rhs in rows)
        assert [rhs for _, _, rhs in rows] == [0, 1, a, a * a]

    def test_rows_are_plain_tuples(self):
        rows = check_moment_identities(RootConfig((1, 2)), 4)
        assert type(rows) is tuple
        assert [(type(row), len(row)) for row in rows] == [(tuple, 3)] * 5
        assert [k for k, _, _ in rows] == [0, 1, 2, 3, 4]

    def test_max_k_below_q_rejected(self):
        with pytest.raises(ValueError, match="max_k"):
            check_moment_identities(RootConfig((1, 2, 3)), 2)

    @given(root_configs)
    @settings(max_examples=50)
    def test_random_configs_pass(self, cfg):
        rows = check_moment_identities(cfg, cfg.q + 6)
        assert all(lhs == rhs for _, lhs, rhs in rows)


class TestIntegration:
    def test_pair_fixture_both_routes(self):
        cfg = RootConfig((1, 2))
        expected = (0, 0, F(-1, 2), -1, F(-7, 4), -3)
        for route in (integrate_via_expansion, integrate_via_partial_fractions):
            res = route(cfg, 5)
            assert res == expected
            assert type(res) is tuple and all(type(b) is F for b in res)

    def test_single_root_series(self):
        a = F(2, 3)
        res = integrate_via_expansion(RootConfig((a,)), 4)
        assert res == (0, -1, -a / 2, -a * a / 3, -a**3 / 4)

    def test_single_root_leading_coefficient(self):
        res = integrate_via_partial_fractions(RootConfig((F(9, 11),)), 4)
        assert res[1] == -1

    def test_truncation_too_small(self):
        with pytest.raises(ValueError, match="truncation"):
            integrate_via_expansion(RootConfig((1, 2)), 2)
        with pytest.raises(ValueError, match="truncation"):
            integrate_via_partial_fractions(RootConfig((1, 2)), 2)

    def test_permuted_roots_give_identical_series(self):
        a = integrate_via_expansion(RootConfig((1, 2)), 8)
        b = integrate_via_expansion(RootConfig((2, 1)), 8)
        assert a == b

    @given(root_configs, st.integers(0, 8))
    @settings(max_examples=50)
    def test_routes_agree(self, cfg, extra):
        n = cfg.q + 1 + extra
        ref = integrate_via_expansion(cfg, n)
        chk = integrate_via_partial_fractions(cfg, n)
        assert ref == chk

    @given(root_configs)
    @settings(max_examples=50)
    def test_derivative_recovers_integrand(self, cfg):
        n = cfg.q + 6
        g = integrate_via_expansion(cfg, n)
        q_poly = Poly.from_roots([0, *cfg.roots])
        f = InvZSeries.from_rational(Poly((1,)), q_poly, n + 1)
        assert derivative(InvZSeries(n, g)).agrees_with(f)

    @given(root_configs)
    @settings(max_examples=50)
    def test_low_coefficients_vanish(self, cfg):
        g = integrate_via_expansion(cfg, cfg.q + 2)
        for n in range(1, cfg.q):
            assert g[n] == 0


class TestClosedForm:
    def test_pair_values(self):
        cfg = RootConfig((1, 2))
        assert closed_form_coefficient(cfg, 0) == F(-1, 2)
        assert closed_form_coefficient(cfg, 2) == F(-7, 4)

    def test_result_carries_closed_form(self):
        cfg = RootConfig((1, 2))
        res = integrate_via_expansion(cfg, 5)
        assert closed_form(cfg, 3) == (F(-1, 2), -1, F(-7, 4), -3)
        assert res[2:] == closed_form(cfg, 3)

    @given(root_configs, st.integers(0, 6))
    @settings(max_examples=50)
    def test_matches_series_coefficient(self, cfg, l):
        res = integrate_via_expansion(cfg, cfg.q + 7)
        assert res[cfg.q + l] == closed_form_coefficient(cfg, l)

    @given(root_configs, nonzero_rationals, st.integers(0, 5))
    @settings(max_examples=50)
    def test_scaling_covariance(self, cfg, t, l):
        scaled = RootConfig(tuple(t * r for r in cfg.roots))
        assert closed_form_coefficient(scaled, l) == t**l * closed_form_coefficient(
            cfg, l
        )

    def test_formula_shape(self):
        # b_{q+l} = -h_l(a)/(q+l)
        cfg = RootConfig((F(1, 3), F(2, 5), -4))
        for l in range(5):
            expected = -complete_homogeneous(cfg.roots, l) / (cfg.q + l)
            assert closed_form_coefficient(cfg, l) == expected


class TestValuationCheck:
    # The valuation theorem on both routes: valuation q, leading coefficient
    # -1/q, and the two series agree.
    @staticmethod
    def routes(cfg, truncation):
        ref = integrate_via_expansion(cfg, truncation)
        chk = integrate_via_partial_fractions(cfg, truncation)
        assert ref == chk
        assert valuation(ref) == valuation(chk)
        return ref

    def test_pair(self):
        ref = self.routes(RootConfig((1, 2)), 6)
        assert valuation(ref) == 2
        assert ref[2] == F(-1, 2)

    def test_single_root(self):
        ref = self.routes(RootConfig((F(7, 2),)), 4)
        assert valuation(ref) == 1
        assert ref[1] == -1

    def test_three_roots(self):
        ref = self.routes(RootConfig((1, 2, 3)), 8)
        assert valuation(ref) == 3
        assert ref[3] == F(-1, 3)

    @given(root_configs)
    @settings(max_examples=40)
    def test_valuation_is_q(self, cfg):
        ref = self.routes(cfg, cfg.q + 3)
        assert valuation(ref) == cfg.q
        assert ref[cfg.q] == F(-1, cfg.q)


def test_large_random_config_consistency():
    rng = random.Random(413)
    for q in (6, 8):
        cfg = random_root_config(rng, q)
        n = q + 10
        ref = integrate_via_expansion(cfg, n)
        chk = integrate_via_partial_fractions(cfg, n)
        assert ref == chk
        assert valuation(ref) == q
        assert ref[q] == F(-1, q)
