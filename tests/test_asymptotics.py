import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from poleint import (
    ChargeSystem,
    Poly,
    RootConfig,
    integrate_via_expansion,
    potential,
    scaling_limit_table,
)

from conftest import root_configs


def _float_eval(poly, z):
    acc = 0j
    for c in reversed(poly.coefficients):
        acc = acc * z + float(c)
    return acc


class TestChargeSystem:
    def test_single_root_pair(self):
        system = ChargeSystem.from_roots(RootConfig((F(7, 3),)))
        assert system.charges == ((0, F(-3, 7)), (F(7, 3), F(3, 7)))

    def test_pair_fixture(self):
        system = ChargeSystem.from_roots(RootConfig((1, 2)))
        assert system.charges == ((0, F(1, 2)), (1, -1), (2, F(1, 2)))

    def test_nonzero_total_rejected(self):
        with pytest.raises(ValueError, match="total charge"):
            ChargeSystem(((0, F(1)), (1, F(1))))

    def test_empty_system_allowed(self):
        assert ChargeSystem(()).total_charge == 0

    @given(root_configs)
    @settings(max_examples=50)
    def test_total_charge_is_exactly_zero(self, cfg):
        assert ChargeSystem.from_roots(cfg).total_charge == 0


class TestPotential:
    def test_empty_sum(self):
        assert potential(ChargeSystem(()), 3 + 4j) == 0

    def test_singular_at_charge(self):
        system = ChargeSystem.from_roots(RootConfig((1,)))
        with pytest.raises(ValueError, match="singular"):
            potential(system, 1 + 0j)

    def test_conjugation_symmetry(self):
        system = ChargeSystem.from_roots(RootConfig((1, 2)))
        for z in (3 + 1j, 5 - 2j, 4 + 4j):
            a = potential(system, z.conjugate())
            b = potential(system, z).conjugate()
            assert abs(a - b) <= 1e-15 * max(1.0, abs(b))

    def test_dipole_deviation_is_first_order_in_a(self):
        # pair at a with charges -1/a, 1/a: potential = (1/a) log(1 - a/z),
        # so |pot - (-1/z)| / |1/z| = a/(2z) + O((a/z)^2)
        a = F(1, 100)
        system = ChargeSystem.from_roots(RootConfig((a,)))
        pot = potential(system, 10 + 0j)
        rel = abs(pot - (-0.1)) / 0.1
        assert math.isclose(rel, float(a) / 20, rel_tol=2e-3)

    def test_dipole_limit_reaches_1e6_when_separation_small_enough(self):
        # the 1e-6 band needs a/(2z) < 1e-6, i.e. a < 2e-5 * z
        a = F(1, 100000)
        system = ChargeSystem.from_roots(RootConfig((a,)))
        pot = potential(system, 10 + 0j)
        assert abs(pot - (-0.1)) / 0.1 < 1e-6


class TestDerivativeConsistency:
    # Central differences with step 1e-5*|z| sit close to the double-precision
    # noise floor; the sample arc below keeps 1/Q large enough for margin.
    ANGLES = (-50, -30, -10, 5, 25, 45)

    @pytest.mark.parametrize(
        "roots,radius", [((1, 2), 4.0), ((F(1, 4),), 1.5)]
    )
    def test_both_potential_and_series_differentiate_to_integrand(
        self, roots, radius
    ):
        cfg = RootConfig(roots)
        q_poly = Poly.from_roots([0, *cfg.roots])
        system = ChargeSystem.from_roots(cfg)
        g = integrate_via_expansion(cfg, 64)
        for degrees in self.ANGLES:
            z = radius * cmath.exp(1j * math.radians(degrees))
            h = 1e-5 * abs(z)
            truth = 1 / _float_eval(q_poly, z)
            d_pot = (potential(system, z + h) - potential(system, z - h)) / (2 * h)
            d_ser = (g.evaluate(z + h) - g.evaluate(z - h)) / (2 * h)
            assert abs(d_pot - truth) / abs(truth) < 1e-9
            assert abs(d_ser - truth) / abs(truth) < 1e-9


class TestScalingLimit:
    def test_pair_report(self):
        cfg = RootConfig((1, 2))
        report = scaling_limit_table(
            cfg, [F(1), F(1, 2)], radius=10.0, samples=32, truncation=12
        )
        assert report.strictly_decreasing
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.coefficients[0] == F(-1, 2)

    def test_scaling_law_in_rows(self):
        cfg = RootConfig((1, 2))
        report = scaling_limit_table(
            cfg, [F(1), F(1, 4)], radius=10.0, samples=16, truncation=10
        )
        base, quarter = report.rows
        for l, (b, bq) in enumerate(zip(base.coefficients, quarter.coefficients)):
            assert bq == F(1, 4) ** l * b

    def test_ratio_band_flags_match_ratios(self):
        cfg = RootConfig((1, 2))
        report = scaling_limit_table(
            cfg, [F(1), F(1, 2), F(1, 4)], radius=10.0, samples=32, truncation=16
        )
        assert len(report.ratios) == 2
        for ratio, flag in zip(report.ratios, report.ratio_in_band):
            assert flag == (0.3 <= ratio <= 0.7)

    def test_max_l_caps_table(self):
        cfg = RootConfig((1, 2))
        report = scaling_limit_table(
            cfg, [F(1)], radius=10.0, samples=8, truncation=12, max_l=3
        )
        assert len(report.rows[0].coefficients) == 4

    def test_deterministic(self):
        cfg = RootConfig((1, 2))
        kwargs = dict(radius=10.0, samples=16, truncation=10)
        a = scaling_limit_table(cfg, [F(1)], **kwargs)
        b = scaling_limit_table(cfg, [F(1)], **kwargs)
        assert a.rows[0].sup_error == b.rows[0].sup_error
        assert a.rows[0].coefficients == b.rows[0].coefficients

    def test_radius_inside_root_disk_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            scaling_limit_table(
                RootConfig((1, 2)), [F(1)], radius=1.5, samples=8, truncation=10
            )

    def test_scales_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            scaling_limit_table(
                RootConfig((1, 2)), [F(-1)], radius=10.0, samples=8, truncation=10
            )

    def test_no_scales_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            scaling_limit_table(
                RootConfig((1, 2)), [], radius=10.0, samples=8, truncation=10
            )

    def test_sup_error_scale(self):
        # leading error term is |b_{q+1}| / R^(q+1) = t * h_1 / (q+1) / R^3
        cfg = RootConfig((1, 2))
        report = scaling_limit_table(
            cfg, [F(1, 8)], radius=10.0, samples=64, truncation=24
        )
        sup = report.rows[0].sup_error
        leading = (1 / 8) * 3 / 3 / 10**3
        assert leading < sup < 1.1 * leading

    def test_sup_error_underflow_gives_nan_ratio(self):
        # at |z| = 1e200 every sup error is below the smallest double
        report = scaling_limit_table(
            RootConfig((1,)), [F(1), F(1, 2)], radius=1e200, samples=4, truncation=6
        )
        assert [row.sup_error for row in report.rows] == [0.0, 0.0]
        assert len(report.ratios) == 1 and math.isnan(report.ratios[0])
        assert report.ratio_in_band == (False,)
        assert not report.strictly_decreasing
