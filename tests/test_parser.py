import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given

from poleint import (
    Poly,
    PolyParseError,
    RootConfig,
    format_rational,
    parse_factored_denominator,
    parse_poly,
    parse_rational,
)
from poleint.parser import MAX_DEGREE, MAX_NESTING, MAX_POWER_BITS

from conftest import polys, root_tuples


def factored_form(cfg: RootConfig) -> str:
    factors = ["z"]
    for r in cfg.roots:
        factors.append(f"(z-{r})" if r > 0 else f"(z+{-r})")
    return "*".join(factors)


class TestParseRational:
    def test_reduces(self):
        assert parse_rational("3/6") == F(1, 2)

    def test_negative_integer(self):
        assert parse_rational("-2") == -2

    def test_plus_sign(self):
        assert parse_rational("+5/10") == F(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(PolyParseError) as exc:
            parse_rational("1/0")
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("-", 1),
            ("1/", 2),
            ("/2", 0),
            ("1.5", 1),
            ("2/-3", 2),
            ("1 2", 1),
            ("\u0661", 0),  # non-ASCII digit
            ("1/\u0662", 2),
        ],
    )
    def test_malformed(self, text, position):
        with pytest.raises(PolyParseError) as exc:
            parse_rational(text)
        assert exc.value.position == position

    def test_format_round_trip(self):
        # the last two have more digits than the int-to-str limit admits
        huge = (F(-(7**6000), 3**5000), F(10**5000))
        for value in (F(1, 2), F(-3), F(0), F(22, 7), *huge):
            assert parse_rational(format_rational(value)) == value

    def test_literal_bits_boundary(self):
        # 2^MAX_POWER_BITS - 1, of 78914 digits, is the largest literal
        top = format_rational(F(2**MAX_POWER_BITS - 1))
        assert parse_rational(f"-{top}") == 1 - 2**MAX_POWER_BITS
        assert parse_poly(f"z+{top}") == Poly((2**MAX_POWER_BITS - 1, 1))
        assert parse_rational("0" * 1000 + "1/" + "0" * 700 + "3") == F(1, 3)
        over = format_rational(F(2**MAX_POWER_BITS))
        for parse, text, position in [
            (parse_rational, over, 0),
            (parse_rational, f"-{over}", 1),
            (parse_rational, f"1/{over}", 2),
            (parse_poly, f"z+{over}", 2),
            (parse_factored_denominator, f"z*(z-{over})", 5),
        ]:
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert (str(exc.value), exc.value.position) == (
                f"literal above {MAX_POWER_BITS} bits", position)


class TestParsePoly:
    def test_factored_product(self):
        assert parse_poly("z*(z-1)*(z-2)") == Poly((0, 2, -3, 1))

    def test_expanded_form_same_poly(self):
        assert parse_poly("z^3-3*z^2+2*z") == Poly((0, 2, -3, 1))

    def test_rational_coefficient(self):
        assert parse_poly("z*(z-1/2)") == Poly((0, F(-1, 2), 1))

    def test_whitespace_allowed(self):
        assert parse_poly(" z * ( z - 1 ) ") == Poly((-1, 1)) * Poly((0, 1))

    def test_unary_minus(self):
        assert parse_poly("-z") == Poly((0, -1))
        assert parse_poly("-1*z^2") == Poly((0, 0, -1))

    def test_caret_binds_to_whole_atom(self):
        # the unary minus is part of the atom, so -z^2 means (-z)^2
        assert parse_poly("-z^2") == Poly((0, 0, 1))

    def test_constant_power(self):
        assert parse_poly("2^3") == Poly((8,))

    def test_parenthesized_power(self):
        assert parse_poly("(z+1/2)^2") == Poly((F(1, 4), 1, 1))

    def test_binary_minus_of_square(self):
        assert parse_poly("0-z^2") == Poly((0, 0, -1))

    @pytest.mark.parametrize(
        "text,position",
        [
            ("(z+1", 4),        # unbalanced parens
            ("z+", 2),          # dangling operator
            ("z^1/2", 3),       # fractional exponent leaves a stray '/'
            ("z^-1", 2),        # exponent must be a literal uint
            ("z z", 2),         # stray token
            ("2z", 1),          # implicit multiplication not in the grammar
            ("", 0),            # empty input
            ("z*", 2),          # missing factor
            ("(", 1),           # missing body
            (")", 0),           # stray close
            ("z**2", 2),        # '**' is not a power operator
            ("q", 0),           # unknown name
            ("z^(2)", 2),       # exponent must be a literal, not a group
            ("1/0", 2),         # zero denominator
            ("z^2.5", 3),       # unexpected character
            ("z\u00b2", 1),     # superscript two is not an ASCII digit
            ("\u0661+z", 0),    # nor is an Arabic-Indic digit
            ("z^99999999", 2),  # degree above MAX_DEGREE: at the exponent,
            (f"(z^2+1)^{MAX_DEGREE // 2 + 1}", 8),
            ("z^600*z^600", 5),  # or at the '*' of a product
            (f"z*z^{MAX_DEGREE}", 1),
            ("9^9999999", 2),  # a power above MAX_POWER_BITS, at the exponent
            ("(9^999*z)^999", 10),
            ("(2^87381)^3", 10),  # 87382 bits cubed
            ("9^50000*9^50000", 7),  # a product above MAX_POWER_BITS, at its '*'
            ("z*2^87380*2^87380*2^87380", 17),
        ],
    )
    def test_negative_corpus_with_positions(self, text, position):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert exc.value.position == position

    @given(polys)
    def test_str_round_trip(self, p):
        assert parse_poly(str(p)) == p

    def test_degree_max_degree_parses(self):
        assert parse_poly(f"z^{MAX_DEGREE}") == Poly((0, 1)) ** MAX_DEGREE
        assert parse_poly(f"z^600*z^{MAX_DEGREE - 600}") == Poly((0, 1)) ** MAX_DEGREE

    def test_power_bits_boundary(self):
        # 2 has 2 bits and degree 0: e * (2 + 1) is the size the bound reads
        assert MAX_POWER_BITS // 3 == 87381
        assert parse_poly("2^87381") == Poly((2**87381,))
        with pytest.raises(PolyParseError, match=f"power above {MAX_POWER_BITS} bits"):
            parse_poly("2^87382")

    def test_product_bits_boundary(self):
        # each 2^e is charged e + 1 bits plus 1 for degree 0: 262144 in all
        assert 87382 + 87382 + 87380 == MAX_POWER_BITS
        assert parse_poly("2^87380*2^87380*2^87378") == Poly((2 ** (3 * 87380 - 2),))
        with pytest.raises(PolyParseError, match=f"product above {MAX_POWER_BITS} bits") as exc:
            parse_poly("2^87380*2^87380*2^87379")
        assert exc.value.position == 15

    @pytest.mark.parametrize(
        "text",
        [
            "7^12000",
            "7^6000",
            "7^6000*z",
            "2^87381",
            "(z^2+1)^500",
            "(z+1/2)^2",
            "2^3",
            "0^99999999",
        ],
    )
    def test_power_bound_accepts_the_test_inputs(self, text):
        parse_poly(text)

    def test_power_bound_accepts_the_benchmark_inputs(self, monkeypatch):
        # every numerator four shape cycles of each workload draw, seeds 1 and 2
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        from workloads import WORKLOADS

        numerators = [
            arg.removeprefix("--num=")
            for w in WORKLOADS.values()
            for seed in (1, 2)
            for req in itertools.islice(w.requests(seed), 4 * w.cycle)
            for arg in req.argv
            if arg.startswith("--num=")
        ]
        assert len(numerators) == 24
        for text in numerators:
            parse_poly(text)

    def test_nesting_50_deep_parses(self):
        # 50 parentheses around 50 unary minuses: 100 levels, the most allowed
        assert parse_poly("(" * 50 + "-" * 50 + "z" + ")" * 50) == Poly((0, 1))


class TestFactoredDenominator:
    def test_two_roots(self):
        assert parse_factored_denominator("z*(z-1)*(z-2)") == [1, 2]

    def test_bare_z_position_free(self):
        assert parse_factored_denominator("(z-1)*z") == [1]

    def test_plus_negates_root(self):
        assert parse_factored_denominator("z*(z+1/2)") == [F(-1, 2)]

    def test_bare_z_alone(self):
        assert parse_factored_denominator("z") == []

    def test_duplicate_roots_pass_through(self):
        # distinctness is the root-configuration's job, not the parser's
        assert parse_factored_denominator("z*(z-1)*(z-1)") == [1, 1]

    @pytest.mark.parametrize(
        "text",
        ["z^2*(z-1)", "z*(z-1)+z", "(z-1)*(z-2)", "z*z", "z*(2-z)", "z*(z-1)*"],
    )
    def test_rejects_other_shapes(self, text):
        with pytest.raises(PolyParseError):
            parse_factored_denominator(text)

    @pytest.mark.parametrize(
        "text,roots",
        [
            ("z*((z-1))", [1]),
            ("z*(z-(1))", [1]),
            ("z*(1*z-1)", [1]),
            ("z*(z-3^2)", [9]),
            ("z*(z+-1/2)", [F(1, 2)]),
            ("z*-(2-z)", [2]),
            ("(z-1+1/3)*z", [F(2, 3)]),
            ("z*(z)", [0]),  # a root of 0, which RootConfig refuses
        ],
    )
    def test_any_factor_that_expands_to_z_minus_r_reads_r(self, text, roots):
        assert parse_factored_denominator(text) == roots

    def test_bare_z_is_the_token_not_the_value(self):
        # (z-0) expands to z but is a factor z - 0, so the bare z is still one
        assert parse_factored_denominator("z*(z-0)") == [0]
        with pytest.raises(PolyParseError, match="exactly one bare z") as exc:
            parse_factored_denominator("(z-0)*(z)")
        assert exc.value.position == 0

    def test_parser_bounds_hold_inside_a_factor(self):
        with pytest.raises(PolyParseError, match=f"power above {MAX_POWER_BITS} bits") as exc:
            parse_factored_denominator("z*(z-9^99999)")
        assert exc.value.position == 7
        text = "z*" + "(" * (MAX_NESTING + 1) + "z-1" + ")" * (MAX_NESTING + 1)
        with pytest.raises(PolyParseError, match=f"deeper than {MAX_NESTING}") as exc:
            parse_factored_denominator(text)
        assert exc.value.position == 2 + MAX_NESTING

    def test_reads_the_roots_of_every_benchmark_den(self, monkeypatch):
        # every --den four shape cycles of cli-cold draw, seeds 1 and 2, and
        # the roots the workload drew for it (the first argument of its check)
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        from workloads import WORKLOADS

        w = WORKLOADS["cli-cold"]
        dens = [
            (arg.removeprefix("--den="), list(req.check.args[0]))
            for seed in (1, 2)
            for req in itertools.islice(w.requests(seed), 4 * w.cycle)
            for arg in req.argv
            if arg.startswith("--den=")
        ]
        assert len(dens) == 2 * 4 * 8
        for text, roots in dens:
            assert parse_factored_denominator(text) == roots

    @given(root_tuples)
    def test_round_trip_reproduces_polynomial(self, roots):
        cfg = RootConfig(roots)
        text = factored_form(cfg)
        assert parse_factored_denominator(text) == list(cfg.roots)
        assert parse_poly(text) == Poly.from_roots([0, *cfg.roots])
