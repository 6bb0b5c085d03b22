import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from poleint import (
    InvZSeries,
    Poly,
    RootConfig,
    integrate_via_expansion,
    partial_fractions,
    scaling_limit_table,
)
from poleint import asymptotics
from poleint.asymptotics import CHUNK, MAX_HORNER_STEPS

from conftest import root_configs
from oracles import log_potential, sup_errors


def _float_eval(poly, z):
    acc = 0j
    for c in reversed(poly.coefficients):
        acc = acc * z + float(c)
    return acc


def _charges(cfg):
    """(pole, 1/Q'(pole)) for every pole of 1/Q, 0 included."""
    return partial_fractions(Poly((1,)), cfg)


class TestChargeSystem:
    def test_single_root_pair(self):
        charges = _charges(RootConfig((F(7, 3),)))
        assert charges == ((0, F(-3, 7)), (F(7, 3), F(3, 7)))

    def test_pair_fixture(self):
        charges = _charges(RootConfig((1, 2)))
        assert charges == ((0, F(1, 2)), (1, -1), (2, F(1, 2)))

    @given(root_configs)
    @settings(max_examples=50)
    def test_total_charge_is_exactly_zero(self, cfg):
        assert sum(c for _, c in _charges(cfg)) == 0


class TestPotential:
    def test_singular_at_charge(self):
        with pytest.raises(ValueError, match="math domain error"):
            log_potential(RootConfig((1,)), 1 + 0j)

    def test_conjugation_symmetry(self):
        cfg = RootConfig((1, 2))
        for z in (3 + 1j, 5 - 2j, 4 + 4j):
            a = log_potential(cfg, z.conjugate())
            b = log_potential(cfg, z).conjugate()
            assert abs(a - b) <= 1e-15 * max(1.0, abs(b))

    def test_dipole_deviation_is_first_order_in_a(self):
        # pair at a with charges -1/a, 1/a: potential = (1/a) log(1 - a/z),
        # so |pot - (-1/z)| / |1/z| = a/(2z) + O((a/z)^2)
        a = F(1, 100)
        pot = log_potential(RootConfig((a,)), 10 + 0j)
        rel = abs(pot - (-0.1)) / 0.1
        assert math.isclose(rel, float(a) / 20, rel_tol=2e-3)

    def test_dipole_limit_reaches_1e6_when_separation_small_enough(self):
        # the 1e-6 band needs a/(2z) < 1e-6, i.e. a < 2e-5 * z
        a = F(1, 100000)
        pot = log_potential(RootConfig((a,)), 10 + 0j)
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
        g = InvZSeries(64, integrate_via_expansion(cfg, 64))
        for degrees in self.ANGLES:
            z = radius * cmath.exp(1j * math.radians(degrees))
            h = 1e-5 * abs(z)
            truth = 1 / _float_eval(q_poly, z)
            d_pot = (log_potential(cfg, z + h) - log_potential(cfg, z - h)) / (2 * h)
            d_ser = (g.evaluate(z + h) - g.evaluate(z - h)) / (2 * h)
            assert abs(d_pot - truth) / abs(truth) < 1e-9
            assert abs(d_ser - truth) / abs(truth) < 1e-9


class TestScalingLimit:
    def test_pair_report(self):
        cfg = RootConfig((1, 2))
        rows = scaling_limit_table(
            cfg, [F(1), F(1, 2)], radius=10.0, samples=32, truncation=12
        )
        assert rows[1][2] < rows[0][2]
        assert len(rows) == 2
        for _, coefficients, _ in rows:
            assert coefficients[0] == F(-1, 2)

    def test_scaling_law_in_rows(self):
        cfg = RootConfig((1, 2))
        (_, base, _), (_, quarter, _) = scaling_limit_table(
            cfg, [F(1), F(1, 4)], radius=10.0, samples=16, truncation=10
        )
        for l, (b, bq) in enumerate(zip(base, quarter)):
            assert bq == F(1, 4) ** l * b

    def test_rows_are_plain_tuples(self):
        rows = scaling_limit_table(
            RootConfig((1, 2)), ["1", "1/2"], radius=10.0, samples=8, truncation=6
        )
        assert type(rows) is tuple
        assert [(type(row), len(row)) for row in rows] == [(tuple, 3)] * 2
        for (t, coefficients, sup), scale in zip(rows, (F(1), F(1, 2))):
            assert type(t) is F and t == scale
            assert type(coefficients) is tuple and len(coefficients) == 5
            assert type(sup) is float

    def test_max_l_caps_table(self):
        cfg = RootConfig((1, 2))
        ((_, coefficients, _),) = scaling_limit_table(
            cfg, [F(1)], radius=10.0, samples=8, truncation=12, max_l=3
        )
        assert len(coefficients) == 4

    def test_deterministic(self):
        cfg = RootConfig((1, 2))
        kwargs = dict(radius=10.0, samples=16, truncation=10)
        a = scaling_limit_table(cfg, [F(1)], **kwargs)
        b = scaling_limit_table(cfg, [F(1)], **kwargs)
        assert a == b

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
        ((_, _, sup),) = scaling_limit_table(
            cfg, [F(1, 8)], radius=10.0, samples=64, truncation=24
        )
        leading = (1 / 8) * 3 / 3 / 10**3
        assert leading < sup < 1.1 * leading

    def test_sup_error_underflow_gives_nan_ratio(self):
        # at |z| = 1e200 every sup error is below the smallest double
        rows = scaling_limit_table(
            RootConfig((1,)), [F(1), F(1, 2)], radius=1e200, samples=4, truncation=6
        )
        assert [sup for _, _, sup in rows] == [0.0, 0.0]

    @pytest.mark.parametrize("scales,truncation",
                             [([F(1)], 2), ([1, F(1, 2), F(1, 4)], 24)])
    def test_float_work_above_the_bound_is_refused_before_sampling(
            self, monkeypatch, scales, truncation):
        # --samples had no bound: every point was built, however many; at the
        # bound sampling starts, one sample past it is refused before any
        def sampled(angle):
            raise AssertionError("sampled a point")

        monkeypatch.setattr(math, "cos", sampled)
        at_bound = MAX_HORNER_STEPS // (len(scales) * truncation)
        cfg, kwargs = RootConfig((1,)), dict(radius=10.0, truncation=truncation)
        with pytest.raises(AssertionError, match="sampled a point"):
            scaling_limit_table(cfg, scales, samples=at_bound, **kwargs)
        steps = len(scales) * (at_bound + 1) * truncation
        with pytest.raises(ValueError) as refused:
            scaling_limit_table(cfg, scales, samples=at_bound + 1, **kwargs)
        assert str(refused.value) == (
            f"{len(scales)} scales x {at_bound + 1} samples x {truncation} terms = "
            f"{steps} Horner steps, above MAX_HORNER_STEPS = {MAX_HORNER_STEPS}")

    def test_sample_points_are_the_cmath_circle_bit_for_bit(self, monkeypatch):
        # radius * complex(cos a, sin a) is what cmath.exp(i a) gives, signed
        # zeros included: exp of a zero real part scales both by exactly 1.0
        seen = []
        evaluate_all = asymptotics.evaluate_all

        def recorded(coefficients, points):
            return evaluate_all(coefficients, (seen.append(z) or z for z in points))

        monkeypatch.setattr(asymptotics, "evaluate_all", recorded)
        for samples in [*range(1, 300), 1000, 4096, CHUNK, CHUNK + 1, 65536]:
            seen.clear()
            scaling_limit_table(
                RootConfig((1,)), [F(1)], radius=10.0, samples=samples, truncation=2
            )
            want = [10.0 * cmath.exp(2j * cmath.pi * k / samples) for k in range(samples)]
            assert list(map(repr, seen)) == list(map(repr, want))

    def test_the_circle_is_walked_once_for_every_scale(self, monkeypatch):
        # a pre-pass and then each scale walked the circle on its own: four
        # scales made every point five times, 5 x samples calls of cos and sin
        calls = {"cos": 0, "sin": 0}

        def counted(name):
            real = getattr(math, name)

            def call(angle):
                calls[name] += 1
                return real(angle)
            return call

        for name in calls:
            monkeypatch.setattr(math, name, counted(name))
        samples = 2 * CHUNK + 3
        rows = scaling_limit_table(RootConfig((1, 2)), [1, F(1, 2), F(1, 4), F(1, 8)],
                                   radius=10.0, samples=samples, truncation=4)
        assert len(rows) == 4
        assert calls == {"cos": samples, "sin": samples}

    def test_an_overflowing_power_is_reported_before_an_earlier_far_field(
            self, monkeypatch):
        # z**2 underflows to 0 at the point k = 1, in the first chunk, and
        # overflows at k = CHUNK + 1, in the second
        samples = 2 * CHUNK + 1
        early, late = (2 * math.pi * k / samples for k in (1, CHUNK + 1))
        cos, sin = math.cos, math.sin
        monkeypatch.setattr(math, "sin", lambda a: 1e-200 if a == early else sin(a))
        far_field = "radius**q must keep the far field within the double range (q = 2)"
        overflow = "radius**q must not overflow a double (q = 2)"
        for moved, message in [({early: 1e-200}, far_field),
                               ({early: 1e-200, late: 1e300}, overflow)]:
            monkeypatch.setattr(math, "cos", lambda a: moved.get(a) or cos(a))
            with pytest.raises(ValueError) as refused:
                scaling_limit_table(RootConfig((1, 2)), [F(1)], radius=10.0,
                                    samples=samples, truncation=4)
            assert str(refused.value) == message

    @pytest.mark.parametrize("samples", [1000, CHUNK, 3 * CHUNK + 5])
    def test_sups_are_the_one_row_at_a_time_walk_bit_for_bit(self, samples):
        rng = random.Random(samples)
        roots = [F(n, rng.randint(1, 9)) for n in rng.sample(range(1, 40), 3)]
        scales = [F(1), F(1, 2), F(1, rng.randint(3, 50))]
        rows = scaling_limit_table(RootConfig(roots), scales, radius=60.0,
                                   samples=samples, truncation=12)
        tails = [(0, *coefficients[1:]) for _, coefficients, _ in rows]
        assert [sup for _, _, sup in rows] == sup_errors(tails, 3, 60.0, samples)
