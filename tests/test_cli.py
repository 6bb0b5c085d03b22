import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import poleint
import poleint.cli
import poleint.symmetric
from poleint import (
    RootConfig,
    format_rational,
    integrate_via_partial_fractions,
    parse_poly,
    partial_fractions,
)
from poleint.cli import main
from poleint.parser import MAX_NESTING, MAX_POWER_BITS
from poleint.symmetric import MAX_ELIMINATION_BITS, MAX_EXPANSION_BITS

from conftest import PRIMES_30_BITS, SMALL_PRIMES, root_tuples
from make_golden import GOLDEN
from oracles import argparse_reading, check_pfd_document

HUGE = "1" + "0" * 400  # beyond the double range
TINY = "1" + "0" * 77  # roots near 1e-77 put radius**4 below the normal range
_SEVENS = "7" * 5000  # past the interpreter's default 4300-digit limit

EXPECTED_INTEGRATE_DOC = {
    "q": 2,
    "roots": ["1", "2"],
    "truncation": 6,
    "b0_convention": "zero",
    "coefficients": [
        {"n": 0, "value": "0"},
        {"n": 1, "value": "0"},
        {"n": 2, "value": "-1/2"},
        {"n": 3, "value": "-1"},
        {"n": 4, "value": "-7/4"},
        {"n": 5, "value": "-3"},
        {"n": 6, "value": "-31/6"},
    ],
    "valuation": 2,
    "paths_agree": True,
}

EXPECTED_IDENTITIES_TEXT = (
    "k=0 lhs=0 rhs=0 pass=true\n"
    "k=1 lhs=0 rhs=0 pass=true\n"
    "k=2 lhs=1 rhs=1 pass=true\n"
    "k=3 lhs=3 rhs=3 pass=true\n"
    "k=4 lhs=7 rhs=7 pass=true\n"
    "k=5 lhs=15 rhs=15 pass=true\n"
    "k=6 lhs=31 rhs=31 pass=true\n"
    "7/7 identities hold\n"
)


def _int_from_digits(text: str) -> int:
    """int(text) for digit strings of any length, in chunks below the
    interpreter's int-from-str digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_main(argv):
    """main(argv) with its output captured, for tests without capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _den(roots) -> str:
    """The factored denominator z*(z-r1)*(z+r2)*... of `--den`."""
    return "*".join(["z"] + [f"(z-{r})".replace("--", "+") for r in roots])


def _tall_roots(q: int) -> list[Fraction]:
    """q roots over distinct 30-bit primes, about 30 bits each."""
    primes = list(itertools.islice(filter(_is_prime, range(2**30 - 1, 0, -2)), q))
    return [Fraction((-1) ** j * (2**29 + 7 * j), p) for j, p in enumerate(primes)]


class TestIntegrateCommand:
    def test_fixture_json_and_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "integrate", "--roots", "1,2", "--terms", "6", "--format", "json"
        )
        assert code == 0 and err == ""
        assert out == json.dumps(EXPECTED_INTEGRATE_DOC, indent=2) + "\n"

    def test_byte_stable_across_runs(self, capsys):
        args = ("integrate", "--roots", "1,2", "--terms", "6")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second

    def test_duplicate_roots_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "integrate", "--roots", "1,1", "--terms", "6")
        assert code == 1 and out == ""
        assert "roots must be pairwise distinct" in err

    def test_den_equivalent_to_roots(self, capsys):
        by_roots = run_cli(capsys, "integrate", "--roots", "1,2", "--terms", "6")
        by_den = run_cli(
            capsys, "integrate", "--den", "z*(z-1)*(z-2)", "--terms", "6"
        )
        assert by_roots == by_den

    @pytest.mark.parametrize("command", ["integrate", "limit"])
    def test_terms_below_minimum_is_usage_error(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--roots", "1,2", "--terms", "2")
        assert code == 2
        assert err == "error: --terms must be at least q+1 = 3, got 2\n"

    def test_bad_rational_in_roots_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--roots", "1,,2", "--terms", "6")
        assert code == 2
        assert "parse error" in err

    def test_den_wrong_shape_is_parse_error(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--den", "z^2*(z-1)", "--terms", "6"
        )
        assert code == 2
        assert "parse error" in err

    def test_values_beyond_int_str_digit_limit(self, capsys):
        # b_500 = -a^499/500 has a denominator of about 4490 digits, past the
        # interpreter's default 4300-digit limit on str(int).
        a = Fraction(1, 1000000007)
        code, out, err = run_cli(
            capsys, "integrate", "--roots", "1/1000000007", "--terms", "500"
        )
        assert code == 0 and err == ""
        value = json.loads(out)["coefficients"][500]["value"]
        numerator, denominator = value.split("/")
        assert numerator == "-1"
        assert len(denominator) > 4300
        assert _int_from_digits(denominator) == (-a**499 / 500).denominator

    def test_root_beyond_int_str_digit_limit(self, capsys):
        # once exited 1 with the int-to-str digit limit's message
        code, out, err = run_cli(
            capsys, "integrate", "--roots", f"1/{_SEVENS}", "--terms", "3"
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["roots"] == [f"1/{_SEVENS}"] and doc["paths_agree"]
        b3 = Fraction(-1, 3 * _int_from_digits(_SEVENS) ** 2)  # -a^2/3
        assert doc["coefficients"][3]["value"] == format_rational(b3)

    # integrate prints its document from a template of its own: it must be
    # what json.dumps(doc, indent=2) prints, whichever flag gives the roots
    @settings(max_examples=60, deadline=None)
    @given(root_tuples, st.integers(1, 4), st.booleans())
    def test_document_is_its_own_json_dumps(self, roots, extra, den):
        flag = f"--den={_den(roots)}" if den else f"--roots={','.join(map(str, roots))}"
        terms = str(len(roots) + extra)
        code, out, err = run_main(["integrate", flag, "--terms", terms])
        assert code == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_den_with_zero_root_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--den", "z*(z-0)", "--terms", "6"
        )
        assert code == 1
        assert "nonzero" in err

    def test_den_factor_z_is_a_zero_root(self, capsys):
        # (z) is no bare z: it is the factor z - 0, so its root 0 is refused
        code, out, err = run_cli(capsys, "integrate", "--den", "z*(z)", "--terms", "3")
        assert (code, out) == (1, "")
        assert "roots must be nonzero" in err

    @pytest.mark.parametrize(
        "den,offset", [("z*(z^2-2)", 2), ("z*(2*z-1)", 2), ("z*3", 2), ("(z-1)*(2-z)*z", 6)]
    )
    def test_den_factor_not_z_minus_r_is_parse_error_at_it(self, capsys, den, offset):
        code, out, err = run_cli(capsys, "integrate", "--den", den, "--terms", "6")
        assert (code, out) == (2, "")
        assert err == (f"parse error at offset {offset}: "
                       "denominator must be factored as z*(z-r1)*(z-r2)*...\n")

    def test_tall_prime_denominators_match_the_library_route(self, capsys):
        # q = 12 roots over distinct 30-bit primes, so D^k is the whole
        # denominator of most coefficients; the CLI prints it off a Decimal
        # power table, the reference off the partial-fraction route's Fractions.
        roots = _tall_roots(12)
        cfg, terms = RootConfig(tuple(roots)), 36
        series = integrate_via_partial_fractions(cfg, terms)
        expected = {
            "q": 12,
            "roots": [format_rational(r) for r in roots],
            "truncation": terms,
            "b0_convention": "zero",
            "coefficients": [
                {"n": n, "value": format_rational(b)} for n, b in enumerate(series)
            ],
            "valuation": 12,
            "paths_agree": True,
        }
        argv = ["integrate", "--roots=" + ",".join(map(str, roots)), "--terms", "36"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == json.dumps(expected, indent=2) + "\n"


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


class TestIdentitiesCommand:
    def test_fixture_text_and_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "identities", "--roots", "1,2", "--max-k", "6")
        assert code == 0 and err == ""
        assert out == EXPECTED_IDENTITIES_TEXT

    def test_default_max_k(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--roots", "3")
        assert code == 0
        assert out.endswith("12/12 identities hold\n")

    def test_max_k_below_q_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "identities", "--roots", "1,2,3", "--max-k", "1")
        assert code == 1
        assert "max_k" in err


class TestPfdCommand:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--roots", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["numerator"] == "1"
        assert doc["terms"] == [
            {"pole": "0", "coefficient": "1/2"},
            {"pole": "1", "coefficient": "-1"},
            {"pole": "2", "coefficient": "1/2"},
        ]
        assert doc["coefficient_sum"] == "0"
        assert doc["reconstruction_ok"] is True

    def test_numerator_expression(self, capsys):
        code, out, _ = run_cli(capsys, "pfd", "--roots", "1,2", "--num", "z")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"][0] == {"pole": "0", "coefficient": "0"}

    # pfd prints its document from a template of its own: it must be what
    # json.dumps(doc, indent=2) prints of the library's decomposition, with
    # the decomposition check holding (exit 0) or not (exit 3)
    @pytest.mark.parametrize(
        "roots,den,num",
        [
            ((1, 2), False, "1"),
            ((1, Fraction(-1, 2)), True, "3/4*z^2+1"),
            ((Fraction(1, 3), -2, Fraction(5, 7), 4), False, "z^3-2/5*z+7"),
            ((Fraction(-7, 3), Fraction(5, 11), 9, Fraction(1, 2)), True,
             "-7/3*z^4+z-1/2"),
        ],
    )
    @pytest.mark.parametrize("holds", [True, False])
    def test_document_is_its_own_json_dumps(self, monkeypatch, roots, den, num, holds):
        numerator = parse_poly(num)
        pf = partial_fractions(numerator, RootConfig(tuple(map(Fraction, roots))))
        if not holds:
            monkeypatch.setattr(poleint.cli, "decomposes", lambda numerator, terms: False)
        doc = {
            "q": len(roots),
            "roots": [format_rational(Fraction(r)) for r in roots],
            "numerator": str(numerator),
            "terms": [{"pole": format_rational(p), "coefficient": format_rational(c)}
                      for p, c in pf],
            "coefficient_sum": format_rational(sum(c for _, c in pf)),
            "reconstruction_ok": holds,
        }
        flag = f"--den={_den(roots)}" if den else f"--roots={','.join(map(str, roots))}"
        assert run_main(["pfd", flag, f"--num={num}"]) == (
            0 if holds else 3, json.dumps(doc, indent=2) + "\n", "")

    def test_numerator_degree_error(self, capsys):
        code, _, err = run_cli(capsys, "pfd", "--roots", "1,2", "--num", "z^5")
        assert code == 1
        assert "degree" in err


    def test_numerator_beyond_int_str_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "pfd", "--roots", "1,2", "--num", "7^6000")
        assert code == 0 and err == ""
        numerator = json.loads(out)["numerator"]
        assert len(numerator) > 4300
        assert _int_from_digits(numerator) == 7**6000

    # a digit literal past the int-to-str digit limit once exited 1 with that
    # limit's message, and a long trailing token tripped it in the error
    def test_literals_beyond_int_str_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "pfd", "--roots", "1", "--num", _SEVENS)
        assert (code, err) == (0, "")
        assert json.loads(out)["numerator"] == _SEVENS
        code, out, err = run_cli(capsys, "pfd", "--den", f"z*(z-{_SEVENS})")
        assert (code, err) == (0, "")
        assert json.loads(out)["roots"] == [_SEVENS]
        code, out, err = run_cli(capsys, "pfd", "--roots", "1", "--num", f"z {_SEVENS}")
        assert (code, out) == (2, "")
        assert err == f"parse error at offset 2: unexpected token {_SEVENS}\n"

    @pytest.mark.parametrize(
        "argv,offset",
        [
            (["pfd", "--roots", "1", "--num", "9" * 80000], 0),
            (["integrate", "--roots", "1,-" + "9" * 80000, "--terms", "3"], 3),
            (["vandermonde", "--points", "1,1/" + "9" * 80000], 4),
        ],
    )
    def test_literal_above_max_power_bits_is_parse_error(self, capsys, argv, offset):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"parse error at offset {offset}: literal above {MAX_POWER_BITS} bits\n"
        )

    @pytest.mark.parametrize("opener", ["(", "-"])
    def test_deep_nesting_is_parse_error(self, capsys, opener):
        closer = ")" if opener == "(" else ""
        text = opener * 3000 + "z" + closer * 3000
        code, out, err = run_cli(capsys, "pfd", "--roots", "1,2", f"--num={text}")
        assert code == 2 and out == ""
        # the token that opens level MAX_NESTING + 1 sits at that offset
        assert err.startswith(f"parse error at offset {MAX_NESTING}:")

    def test_huge_exponent_is_parse_error(self, capsys):
        # z^99999999 used to be expanded before anything checked its degree
        code, out, err = run_cli(capsys, "pfd", "--roots", "1", "--num", "z^99999999")
        assert code == 2 and out == ""
        assert err.startswith("parse error at offset 2:")

    def test_huge_constant_product_is_parse_error(self, capsys):
        # 127 characters once parsed to a 2.5M-bit constant in over a second;
        # the first '*' already takes the product past MAX_POWER_BITS
        num = "*".join(["9^50000"] * 16)
        code, out, err = run_cli(capsys, "pfd", "--roots", "1", "--num", num)
        assert code == 2 and out == ""
        assert err == f"parse error at offset 7: product above {MAX_POWER_BITS} bits\n"

    @pytest.mark.parametrize("num,offset", [("9^9999999", 2), ("(9^999*z)^999", 10)])
    def test_huge_constant_power_is_parse_error(self, capsys, num, offset):
        # a constant power has degree 0 (or a small one), so MAX_DEGREE let
        # 9^9999999 run for more than 10 s; its size bound refuses it at once
        code, out, err = run_cli(capsys, "pfd", "--roots", "1", "--num", num)
        assert code == 2 and out == ""
        assert err == (
            f"parse error at offset {offset}: power above {MAX_POWER_BITS} bits\n"
        )


class TestVandermondeCommand:
    def test_classic_check(self, capsys):
        code, out, _ = run_cli(capsys, "vandermonde", "--points", "0,1,2")
        assert code == 0
        assert out == (
            "check=determinant_vs_product lhs=2 rhs=2 pass=true\n"
            "1/1 checks hold\n"
        )

    def test_generalized_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "vandermonde", "--points", "1,2", "--degree", "2"
        )
        assert code == 0
        assert "check=generalized_degree_2 lhs=7 rhs=7 pass=true" in out

    @pytest.mark.parametrize(
        "points,degree,count,bits",
        [("0,1", 4000000, 4000003, 32000048000026),
         (f"{2**300},1", 900, 903, 246254726)],
        ids=["degree", "bits"],
    )
    def test_degree_above_the_power_bounds_is_refused_before_any_work(
            self, capsys, monkeypatch, points, degree, count, bits):
        # --points 0,1 --degree 4000000 once took 2.6 s, linear in the degree;
        # the expansion kernel sizes h_l before any product or power
        def refuse(*args):
            raise AssertionError("built a matrix or an expansion")

        for name in ("vandermonde_matrix", "bordered_determinants"):
            monkeypatch.setattr(poleint.cli, name, refuse)
        monkeypatch.setattr(poleint.symmetric, "_shared_factor", refuse)
        code, out, err = run_cli(
            capsys, "vandermonde", f"--points={points}", f"--degree={degree}")
        assert (code, out) == (1, "")
        assert err == (f"error: {count} moments at q = 2 could hold {bits} bits, "
                       f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}\n")

    # 1000 takes x^1001 past the parser's MAX_DEGREE, a bound on expressions:
    # the points' powers answer to the kernel's and the elimination's rules
    @pytest.mark.parametrize("degree", [999, 1000])
    def test_degree_at_the_degree_bound_runs(self, capsys, degree):
        code, out, err = run_cli(
            capsys, "vandermonde", "--points", "0,1", "--degree", str(degree))
        assert (code, err) == (0, "")
        assert out.endswith("2/2 checks hold\n")

    def test_point_beyond_int_str_digit_limit(self, capsys):
        # once exited 1 with the int-to-str digit limit's message
        code, out, err = run_cli(capsys, "vandermonde", f"--points={_SEVENS},1")
        assert (code, err) == (0, "")
        det = format_rational(Fraction(1 - _int_from_digits(_SEVENS)))
        assert out == (
            f"check=determinant_vs_product lhs={det} rhs={det} pass=true\n"
            "1/1 checks hold\n"
        )


# Each request once ran with no bound: `integrate --terms 4000` of one 30-bit
# root printed 72 MB, and 400 points built 160000 Fraction powers before the
# elimination's bound refused them.  Each is refused now before the first
# product: the shared factor G, which the expansion kernel takes right after
# its size rule, and every power raise if reached.
_TALL_ROOT = "--roots=1/1073741789"


@pytest.mark.parametrize("argv,count,q,bits", [
    (["integrate", _TALL_ROOT, "--terms=4000"], 4001, 1, 496248062),
    (["identities", _TALL_ROOT, "--max-k=4000"], 4001, 1, 496248062),
    (["limit", "--roots=1", "--samples=1", "--scales=1", "--terms=100000"],
     100001, 1, 20000400004),
], ids=["integrate", "identities", "limit"])
def test_an_oversized_expansion_is_refused_before_any_product(monkeypatch, argv, count,
                                                              q, bits):
    def refuse(*args):
        raise AssertionError("expanded past the size rule")

    monkeypatch.setattr(poleint.symmetric, "_shared_factor", refuse)
    monkeypatch.setattr(Fraction, "__pow__", refuse)
    code, out, err = run_main(argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {count} moments at q = {q} could hold {bits} bits, "
                   f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}\n")


def test_a_tall_limit_scale_is_refused_before_any_pole_difference(monkeypatch):
    # --scales=1/2^10300 --terms 80 ran 1 s and printed 10 MB: the residue
    # kernel on t a answers to the expansion rule on its own D = 2^10300
    def refuse(*args):
        raise AssertionError("took a pole difference")

    monkeypatch.setattr(poleint.integrate, "_pole_differences", refuse)
    code, out, err = run_main(["limit", "--roots=1", f"--scales=1/{2**10300}",
                               "--samples=1", "--terms=80"])
    assert (code, out) == (1, "")
    assert err == ("error: 81 moments at q = 1 could hold 67601724 bits, "
                   f"above MAX_EXPANSION_BITS = {MAX_EXPANSION_BITS}\n")


def test_an_oversized_vandermonde_layout_is_refused_before_any_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a power or scaled a row")

    monkeypatch.setattr(poleint.symmetric, "scale_to_integers", refuse)
    monkeypatch.setattr(Fraction, "__pow__", refuse)
    points = ",".join(map(str, range(1, 401)))
    code, out, err = run_main(["vandermonde", f"--points={points}"])
    assert (code, out) == (1, "")
    assert err == ("error: 400 x 400 powers could hold 574560000 bits, above "
                   f"MAX_ELIMINATION_BITS = {MAX_ELIMINATION_BITS}\n")


class TestLimitCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "limit",
            "--roots", "1,2",
            "--scales", "1,1/2",
            "--radius", "10",
            "--samples", "16",
            "--terms", "8",
            "--max-l", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,l,exact_b,numeric_sup_error"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0" and first[2] == "-1/2"
        float(first[3])  # parses as a double
        # halving the scale scales b_{q+l} by 2^-l
        row_l1_t1 = lines[2].split(",")
        row_l1_t2 = lines[5].split(",")
        assert row_l1_t1[2] == "-1" and row_l1_t2[2] == "-1/2"

    def test_radius_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "limit", "--roots", "1,2", "--scales", "1", "--radius", "1"
        )
        assert code == 1
        assert "radius" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--roots", "1,2", "--radius", "inf"), "radius"),
            (("--roots", "1,2", "--radius", "1e400"), "radius"),
            (("--roots", "1,2", "--max-l", "-1"), "max_l"),
            (
                ("--roots", "1,2", "--radius", "1e200", "--samples", "4",
                 "--terms", "6"),
                "radius",
            ),
            # 1/(q z^q) beyond the double range: z^q underflows to 0, or is
            # subnormal so that the far field overflows
            (("--roots", f"1/{HUGE},-1/{HUGE}", "--radius", "1e-200"), "far field"),
            (("--roots", f"1/{HUGE},-1/{HUGE}", "--radius", "1e-160"), "far field"),
            (
                ("--roots", f"1/{HUGE},-1/{HUGE},2/{HUGE},-2/{HUGE}",
                 "--radius", "5e-78", "--terms", "5", "--max-l", "0"),
                "far field",
            ),
            # 1/(q z^q) is finite, but the series terms on the circle are not
            (
                ("--roots", f"1/{TINY},-1/{TINY},99/{TINY}00,-99/{TINY}00",
                 "--radius", "1.05e-77", "--samples", "16", "--max-l", "0"),
                "far field",
            ),
            # a root or a scale beyond the double range
            (("--roots", HUGE, "--radius", "10"), "exceed every scaled root"),
            (("--roots", "1", "--scales", HUGE, "--radius", "10"), "exceed"),
        ],
    )
    def test_nonfinite_radius_and_negative_max_l_are_domain_errors(
        self, capsys, flags, message
    ):
        code, out, err = run_cli(capsys, "limit", "--scales", "1", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_a_tail_overflow_is_the_far_field_error(self, capsys, monkeypatch):
        # A real input needs a tail coefficient C(q+l-1, l) (rho/R)^l above
        # 1e308, about q + N >= 1000 with every root near the radius, so the
        # tail's double-precision sum raises OverflowError here by fiat.
        def overflow(coefficients, points):
            raise OverflowError("int too large to convert to float")
            yield  # a generator, as evaluate_all is: it raises at the first value

        monkeypatch.setattr(poleint.asymptotics, "evaluate_all", overflow)
        assert run_cli(capsys, "limit", "--roots", "1,2/3,-5/7") == (
            1,
            "",
            "error: radius**q must keep the far field within the double range "
            "(q = 3)\n",
        )

    # nan fails every comparison, so it must meet the finiteness test first
    @pytest.mark.parametrize("radius", ["nan", "inf"])
    def test_nonfinite_radius_reads_must_be_finite(self, capsys, radius):
        code, out, err = run_cli(capsys, "limit", "--roots", "1,2", "--radius", radius)
        assert (code, out, err) == (1, "", "error: radius must be finite\n")

    def test_coefficients_beyond_float_range(self, capsys):
        # b_n = -1000^(n-1)/n passes 1e308 near n = 104, while the scaled
        # term b_n 2000^-n stays tiny.
        code, out, err = run_cli(
            capsys, "limit", "--roots", "1000", "--scales", "1",
            "--radius", "2000", "--terms", "140", "--max-l", "1",
        )
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert math.isfinite(float(row.split(",")[3]))

    @pytest.mark.parametrize(
        "root_flags,scales,radius,samples,terms",
        [
            (("--roots", "1"), "1,1/2", "1e200", "4", "6"),
            (("--den", "z*(z-1)"), "1,2", "1e200", "1", "2"),
        ],
    )
    def test_sup_error_underflow_to_zero(
        self, capsys, root_flags, scales, radius, samples, terms
    ):
        code, out, err = run_cli(
            capsys, "limit", *root_flags, "--scales", scales, "--radius", radius,
            "--samples", samples, "--terms", terms,
        )
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 2 * int(terms)  # q = 1: l = 0..terms-1 per scale
        assert {row.split(",")[3] for row in rows} == {"0"}

    def test_sup_error_is_the_tail_at_tiny_scales(self, capsys):
        # g_t(z) + 1/(q z^q) cancelled two doubles near 1/(q R^q) and read
        # 2.96e-18 at t = 2^-50 against the exact tail 8.88e-19; the tail
        # summed alone keeps the last ratio at the scaling law's 2^-10
        code, out, err = run_cli(
            capsys, "limit", "--roots", "1,2", "--scales",
            "1,1/1024,1/1048576,1/1073741824,1/1099511627776,1/1125899906842624",
            "--radius", "10", "--terms", "24", "--max-l", "1",
        )
        assert code == 0 and err == ""
        sups = [float(row.split(",")[3]) for row in out.splitlines()[1::2]]
        assert math.isclose(sups[-1] / sups[-2], 1 / 1024, rel_tol=0.01)

    def test_samples_above_the_float_work_bound_exit_1(self, capsys, monkeypatch):
        # once built all 2^19 + 1 points before any check; now no point is built
        def sampled(angle):
            raise AssertionError("sampled a point")

        monkeypatch.setattr(math, "cos", sampled)
        code, out, err = run_cli(capsys, "limit", "--roots", "1", "--scales", "1",
                                 "--samples", "524289", "--terms", "2")
        assert (code, out) == (1, "")
        assert err == ("error: 1 scales x 524289 samples x 2 terms = 1048578 Horner "
                       "steps, above MAX_HORNER_STEPS = 1048576\n")

    def test_deterministic(self, capsys):
        args = ("limit", "--roots", "1,2", "--scales", "1,1/2", "--samples", "8",
                "--terms", "6")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    # limit's exact_b at t = 1 and integrate's values come off one reduction
    # of b_n: for l = 0..N-q the column is the value strings of n = q..N
    @pytest.mark.parametrize("family", ["integer", "shared", "coprime", "tall"])
    @pytest.mark.parametrize("q", range(1, 7))
    def test_exact_b_is_what_integrate_prints(self, family, q):
        rng = random.Random(f"{family}-{q}")
        roots = _spread_roots(rng, q, family)
        terms = str(q + rng.randint(1, 8))
        for flag in (f"--roots={','.join(map(str, roots))}", f"--den={_den(roots)}"):
            code, out, err = run_main(["integrate", flag, "--terms", terms])
            assert (code, err) == (0, "")
            values = [c["value"] for c in json.loads(out)["coefficients"][q:]]
            code, out, err = run_main(
                ["limit", flag, "--scales", "1", "--terms", terms,
                 "--radius", "100", "--samples", "4"]
            )
            assert (code, err) == (0, "")
            rows = [row.split(",")[:3] for row in out.splitlines()[1:]]
            assert rows == [["1", str(l), v] for l, v in enumerate(values)]


def _spread_roots(rng, q, family):
    """q distinct nonzero roots: integers, over one shared denominator, over
    small primes, or 30-bit numerators over 30-bit primes."""
    shared, roots = rng.randint(2, 12), {}
    while len(roots) < q:
        if family == "tall":
            root = Fraction(rng.randrange(-(2**30), 2**30),
                            rng.choice(PRIMES_30_BITS))
        else:
            den = {"integer": 1, "shared": shared,
                   "coprime": rng.choice(SMALL_PRIMES)}[family]
            root = Fraction(rng.randint(-9, 9), den)
        if root:
            roots[root] = None
    return list(roots)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_roots_and_den_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "integrate", "--roots", "1", "--den", "z*(z-1)", "--terms", "4"
        )
        assert code == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "integrate", "--roots", "1,2")[0] == 2

    # a value of exactly "--", in either form, which argparse reads as an
    # empty list or as "--" by version
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("pfd", "--roots=--"), "--roots"),
            (("vandermonde", "--points=--"), "--points"),
            (("limit", "--roots=1", "--scales=--"), "--scales"),
            (("integrate", "--roots", "1", "--terms=--"), "--terms"),
            (("identities", "--roots=1", "--max-k=--"), "--max-k"),
            (("integrate", "--den=--", "--terms", "3"), "--den"),
            (("pfd", "--roots=1", "--num=--"), "--num"),
            (("pfd", "--roots", "--"), "--roots"),
            (("limit", "--roots=1", "--radius=--"), "--radius"),
        ],
    )
    def test_double_dash_value_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument {flag}: expected a value\n")

    @pytest.mark.parametrize(
        "argv,offset",
        [
            (("pfd", "--roots", "1,2", "--num", "z\u00b2"), 1),  # superscript two
            (("pfd", "--roots", "\u0661,2"), 0),  # Arabic-Indic digit one
            # an offset in a comma list counts from the start of the list
            (("integrate", "--roots", "1,2,x", "--terms", "4"), 4),
            (("integrate", "--roots", "1, 2/0", "--terms", "4"), 5),
            (("vandermonde", "--points", "1,2,3/0"), 6),
            (("limit", "--roots", "1", "--scales", "1,1/0"), 4),
        ],
    )
    def test_non_ascii_digit_is_parse_error(self, capsys, argv, offset):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error at offset {offset}:")


def _typed(args) -> dict:
    """vars(args), each value as its type and repr, so that nan equals nan."""
    return {name: (type(value), repr(value)) for name, value in vars(args).items()}


def _joined(argv: list[str]) -> list[str]:
    """argv with each flag's separate value joined to it, --flag=value.

    This is the reader's rule that the word after a flag is its value, even
    when it starts with "-", where argparse takes such a word for a flag.
    """
    if not argv or argv[0] not in poleint.cli._SUBCOMMANDS:
        return argv
    joined, words = argv[:1], iter(argv[1:])
    for word in words:
        flag = word.startswith("-") and "=" not in word and word not in ("-h", "--help")
        value = next(words, None) if flag else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _read_as_argparse_reads(argv):
    """The reader's reading of argv, checked against argparse's.

    Where argparse takes argv, the reader gives the same namespace; where
    argparse helps, the reader helps, and where it refuses, the reader
    refuses too.  The one exception is a separate value that starts with
    "-", which argparse refuses and the reader takes: there the reader reads
    argv as argparse reads it with that value joined to its flag.
    """
    expected = argparse_reading(argv)
    if expected == "refused" and argparse_reading(_joined(argv)) != "refused":
        assert any(flag.startswith("-") and "=" not in flag and value.startswith("-")
                   for flag, value in zip(argv[1:], argv[2:])), argv
        expected = argparse_reading(_joined(argv))
    got = poleint.cli._read_argv(argv)
    if expected in ("help", "refused"):
        code = poleint.cli.EXIT_OK if expected == "help" else poleint.cli.EXIT_USAGE
        assert isinstance(got, tuple) and got[0] == code, (argv, got)
    else:
        assert not isinstance(got, tuple), (argv, got)
        assert _typed(got) == _typed(expected), argv
    return got


def test_reader_reads_each_golden_argv_as_argparse_does():
    for case in json.loads(GOLDEN.read_text())["cases"]:
        _read_as_argparse_reads(case["argv"])


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--roots", "1,2", "--rad", "5"],
        ["pfd", "--root=1"],
        ["integrate", "--roots", "1,2", "--terms", "5", "--terms", "6"],
        ["integrate", "--roots", "1", "--terms", "-2"],
        ["pfd", "--roots", "-1,2"],
        ["pfd", "--roots=--"],
        ["pfd", "--roots="],
        ["pfd", "--roots", "1, 2", "--num=z + 1"],
        ["-h"],
        ["integrate", "--help"],
        ["integrate", "--roots", "1", "--terms", "4", "--format", "xml"],
        ["integrate", "--roots", "1", "--den", "z*(z-1)", "--terms", "4"],
        ["integrate", "--terms", "4"],
        ["frobnicate", "--roots", "1"],
        [],
        ["pfd", "--roots", "1,2", "extra"],
        ["limit", "--roots=1", "--radius", "nan", "--max-l=2"],
        ["integrate", "--roots", "1", "--terms", "4", "--format=json"],
        ["integrate", "--ro=1,2", "--terms", "4"],
        ["limit", "--r=1"],
        ["pfd", "--roots", "1", "--roots", "2", "--num", "z"],
        ["pfd", "--num", "--roots=1"],
        ["pfd", "--roots", "1", "--num"],
        ["pfd", "--roots", "1", "-x"],
    ],
)
def test_reader_reads_argv_as_argparse_does(argv):
    _read_as_argparse_reads(argv)


# The word after a flag is its value: argparse refuses these, and the reader
# takes them, as argparse takes --flag=value.
@pytest.mark.parametrize("argv, name, value", [
    (["pfd", "--roots", "-1,2"], "roots", "-1,2"),
    (["pfd", "--roots=1", "--num", "-z"], "num", "-z"),
    (["pfd", "--roots", "--den"], "roots", "--den"),
    (["pfd", "--roots=1", "--num", "-h"], "num", "-h"),
])
def test_the_word_after_a_flag_is_its_value(argv, name, value):
    assert argparse_reading(argv) == "refused"
    assert getattr(_read_as_argparse_reads(argv), name) == value


# The reader takes a flag's full name as one of its prefixes, which names it
# alone only while no flag of the command is a prefix of another.
def test_no_flag_is_a_prefix_of_another():
    for _, _, rooted, flags in poleint.cli._SUBCOMMANDS.values():
        names = ["--help", *(poleint.cli._ROOT_GROUP if rooted else ()), *flags]
        assert [(a, b) for a in names for b in names if a != b and b.startswith(a)] == []


_HELP_WORDS = [["--help"], ["-h"], ["--he"]]
_FLAGS_BEFORE_HELP = {
    "integrate": ["--roots", "1,2", "--terms=6"],
    "pfd": ["--den=z*(z-1)", "--num", "z"],
    "identities": ["--roots=1"],
    "vandermonde": ["--points", "1,2", "--degree=2"],
    "limit": ["--roots", "1,2", "--scales", "1,1/2", "--max-l=3"],
}


# Help is the CLI's own fixed text: the same bytes at any terminal width,
# naming every command, or every flag of its command, on stdout.
@pytest.mark.parametrize("command", [None, *poleint.cli._SUBCOMMANDS])
def test_help_names_every_flag_at_any_terminal_width(command, monkeypatch):
    before = [] if command is None else [command]
    after = [] if command is None else _FLAGS_BEFORE_HELP[command]
    argvs = [before + word for word in _HELP_WORDS] + [before + after + ["-h"]]
    outcomes = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        outcomes.update(run_main(argv) for argv in argvs)
    assert len(outcomes) == 1, outcomes
    (code, out, err), = outcomes
    assert (code, err) == (0, "")
    if command is None:
        names = poleint.cli._SUBCOMMANDS
    else:
        _, _, rooted, flags = poleint.cli._SUBCOMMANDS[command]
        names = [*(poleint.cli._ROOT_GROUP if rooted else ()), *flags]
    assert out.startswith(f"usage: poleint {command or '{'}")
    for name in names:
        assert f"  {name} " in out, name


# A child interpreter imports the same poleint as this suite, installed or not.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(poleint.__file__).parents[1])}


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "poleint", "identities", "--roots", "1,2", "--max-k", "6"],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == EXPECTED_IDENTITIES_TEXT


# Every outcome of a request must be the same whatever ran before it in the
# process, and the same as in a fresh `python -m poleint`, which runs through
# entry to its os._exit.  The last two requests end in a domain error (1) and
# a --terms usage error (2).
_MAIN_ORDER = [
    ["integrate", "--roots", "1,2", "--terms", "6"],
    ["integrate", "--roots", "1,2"],
    ["pfd", "--roots", "1,2", "--num", "z^"],
    ["--help"],
    ["integrate", "--help"],
    ["identities", "--roots", "1,2", "--max-k", "6"],
    ["integrate", "--roots=1/2,-3", "--terms", "5"],
    ["identities", "--roots", "1,1"],
    ["integrate", "--roots", "1,2", "--terms", "2"],
]


def test_main_gives_each_request_the_same_outcome_in_any_order():
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        return code, out.getvalue(), err.getvalue()

    forward = [outcome(argv) for argv in _MAIN_ORDER]
    backward = [outcome(argv) for argv in reversed(_MAIN_ORDER)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 2, 2, 0, 0, 0, 0, 1, 2]
    for argv, (code, out, err) in zip(_MAIN_ORDER, forward):
        proc = subprocess.run(
            [sys.executable, "-m", "poleint", *argv],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# entry flushes what main printed and exits with main's code.
def test_entry_exits_with_mains_code():
    code = (
        "import poleint.cli as cli\n"
        "def fake_main():\n"
        "    print('printed')\n"
        "    return 3\n"
        "cli.main = fake_main\n"
        "cli.entry()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SUBPROCESS_ENV
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "printed\n" and proc.stderr == ""


# Every `python -m poleint` run pays for the modules its import loads: the
# first three once took longer to import than the checks the CLI runs, and
# json and argparse are loaded by no request.  -S keeps site-packages, which
# may load typing first, out of the child.
def test_cli_import_loads_no_argparse_dataclasses_inspect_typing_or_json():
    code = (
        "import sys; before = set(sys.modules); import poleint.cli; "
        "print(sorted({'argparse', 'dataclasses', 'inspect', 'typing', 'json'}"
        " & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# entry ends the process at os._exit once its output is flushed: an atexit
# handler never runs, and the exit code, stdout and stderr are main's, for a
# document larger than the pipe buffer and for a usage error alike.
_ATEXIT_CHILD = (
    "import atexit, sys\n"
    "from poleint import cli\n"
    "atexit.register(lambda: print('atexit handler ran', file=sys.stderr))\n"
    "cli.entry()\n"
)


@pytest.mark.parametrize("argv, want_code, min_stdout", [
    # q = 16, N = 48: a document larger than a 64 KiB pipe buffer
    (["integrate", f"--roots={','.join(map(str, _tall_roots(16)))}", "--terms", "48"],
     0, 65536),
    (["integrate", "--roots", "1,2"], 2, 0),
], ids=["integrate-q16", "usage-error"])
def test_entry_exits_with_mains_output_and_runs_no_atexit_handler(
        argv, want_code, min_stdout):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == want_code and len(out.getvalue()) >= min_stdout
    proc = subprocess.run(
        [sys.executable, "-c", _ATEXIT_CHILD, *argv],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.getvalue(), err.getvalue())
    assert "atexit handler ran" not in proc.stderr


# Importing the CLI builds no Decimal power: the printer builds its powers of
# five and of two on first use.  Then every golden argv, help and usage
# errors included, runs through `main` in the same process, and none loads
# argparse or json.  The argvs come on stdin, as the child reads no json.
_CORPUS_CHILD = (
    "import sys\n"
    "from poleint import cli, polynomial as p\n"
    "print(p._power_of_five.cache_info().currsize,"
    " p._power_of_two.cache_info().currsize)\n"
    "import contextlib, io\n"
    "codes, out = [], io.StringIO()\n"
    "for argv in eval(sys.stdin.read()):\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
    "        codes.append(cli.main(argv))\n"
    "print(codes, sorted({'argparse', 'json'} & set(sys.modules)))\n"
)


def test_no_golden_argv_loads_argparse_or_json_or_builds_a_power_at_import():
    cases = json.loads(GOLDEN.read_text())["cases"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CORPUS_CHILD],
        input=repr([case["argv"] for case in cases]),
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"0 0\n{[case['exit'] for case in cases]} []\n"


# The printer calls str(int) on leaves of at most about 600 digits, under the
# strictest int-to-str limit the interpreter accepts (640): a 90k-bit
# numerator and a q = 16 integrate request print the same under it as under
# the default.
_DIGIT_LIMIT_CHILD = (
    "import random, sys\n"
    "from poleint.cli import main\n"
    "from poleint.polynomial import format_quotient\n"
    "print(format_quotient(-random.Random(90).getrandbits(90_000)))\n"
    "sys.exit(main(sys.argv[1:]))"
)


def test_output_is_free_of_the_int_to_str_digit_limit():
    roots = ",".join(map(str, _tall_roots(16)))
    argv = ["integrate", f"--roots={roots}", "--terms", "48"]
    runs = []
    for limit in ("640", None):
        env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONINTMAXSTRDIGITS"}
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        proc = subprocess.run(
            [sys.executable, "-c", _DIGIT_LIMIT_CHILD, *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    first, document = runs[0].split("\n", 1)
    assert first == str(Decimal(-random.Random(90).getrandbits(90_000)))
    values = [c["value"] for c in json.loads(document)["coefficients"]]
    assert max(map(len, values)) > 4300  # past the default limit too


# The parser reads a literal of more digits than the strictest limit, 640,
# under it; a 700-digit root once exited 1 there with the limit's message.
def test_literals_are_free_of_the_int_to_str_digit_limit():
    root = "3" * 700
    proc = subprocess.run(
        [sys.executable, "-m", "poleint",
         "integrate", f"--roots=1/{root}", "--terms=3"],
        capture_output=True,
        text=True,
        env={**SUBPROCESS_ENV, "PYTHONINTMAXSTRDIGITS": "640"},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["roots"] == [f"1/{root}"]


# The second numerator prints more than stdout's 8 KiB buffer, so the write
# fails inside the command rather than at the final flush.
@pytest.mark.parametrize("num", ["z", "7^12000"])
def test_closed_stdout_exits_1_without_traceback(num):
    proc = subprocess.Popen(
        [sys.executable, "-m", "poleint", "pfd", "--roots", "1,2", "--num", num],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SUBPROCESS_ENV,
    )
    proc.stdout.close()  # before the child can write anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


# Texts of at most 10 characters over those the CLI's inputs are made of,
# plus two non-ASCII digits, or well-formed strings of at most 30 (lists of
# numbers, numerators of up to three terms, factored denominators in any
# factor order), so that the fuzz reaches the computation behind the parser.
# Flag values are passed as --flag=value, the one spelling in which argparse,
# the reader's oracle, reads every text as a value, one starting with '-'
# included.
_FUZZ_FREE = st.text(alphabet="0123456789/+-*^() z,\u00b2\u0661", max_size=10)
_FUZZ_POSITIVE = st.builds(
    "{}{}".format, st.integers(1, 9), st.sampled_from(["", "/2", "/3", "/7"])
)
_FUZZ_NUMBER = _FUZZ_POSITIVE | _FUZZ_POSITIVE.map("-{}".format)
_FUZZ_LIST = st.lists(_FUZZ_NUMBER, min_size=1, max_size=4, unique=True).map(",".join)
_FUZZ_SCALES = st.lists(_FUZZ_POSITIVE, min_size=1, max_size=4).map(",".join)
_FUZZ_TERM = st.builds("{}*z^{}".format, _FUZZ_NUMBER, st.integers(0, 3))
_FUZZ_NUM = st.lists(_FUZZ_TERM, min_size=1, max_size=3).map(
    lambda terms: "+".join(terms).replace("+-", "-"))
_FUZZ_FACTOR = st.builds("(z-{})".format, _FUZZ_NUMBER) | st.builds(
    "(z-{}^2)".format, st.integers(1, 3))
_FUZZ_DEN = st.lists(_FUZZ_FACTOR, max_size=3).flatmap(
    lambda factors: st.permutations(["z", *factors])).map(
    lambda factors: "*".join(factors).replace("--", "+"))


# A value of exactly "--" is a usage error, which argparse's versions read
# differently, so every flag can also draw it.
_DOUBLE_DASH = st.just("--")


def _fuzz_text(well_formed):
    """The well-formed texts, and those or any free text or "--"."""
    short = well_formed.filter(lambda text: len(text) <= 30)
    return short, short | _FUZZ_FREE | _DOUBLE_DASH


_FUZZ_INT = st.integers(-2, 30), st.integers(-2, 30) | _DOUBLE_DASH
# Around the roots' and scales' magnitudes (at most 9 each, so at most 81 for
# t a), the overflow of radius**q and the double range's ends.
_FUZZ_RADIUS = st.sampled_from(
    ["10", "1e150", "1e200", "1e300", "3", "0", "-5", "inf", "nan", "1e-300", "--",
     "1", "2", "9", "81", "81.000001", "1e154", "1e-160", "5e-324", "-0",
     "1.7976931348623157e308"]
)
_FUZZ_ROOTS = {"--roots": _fuzz_text(_FUZZ_LIST), "--den": _fuzz_text(_FUZZ_DEN)}
_FUZZ_FLAGS = {
    "integrate": (("--terms", _FUZZ_INT),),
    "pfd": (("--num", _fuzz_text(_FUZZ_NUM)),),
    "identities": (("--max-k", _FUZZ_INT),),
    "vandermonde": (("--degree", _FUZZ_INT),),
    "limit": (
        ("--scales", _fuzz_text(_FUZZ_SCALES)),
        ("--radius", (_FUZZ_RADIUS, _FUZZ_RADIUS)),
        ("--samples", _FUZZ_INT),
        ("--terms", _FUZZ_INT),
        ("--max-l", _FUZZ_INT),
    ),
}


# Half the requests draw well-formed values alone, so that most of them run;
# the other half also draw free texts and "--".
@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    pick = 0 if draw(st.booleans()) else 1
    if command == "vandermonde":
        argv = [command, f"--points={draw(_FUZZ_ROOTS['--roots'][pick])}"]
    else:
        root_flag = draw(st.sampled_from(sorted(_FUZZ_ROOTS)))
        argv = [command, f"{root_flag}={draw(_FUZZ_ROOTS[root_flag][pick])}"]
    for flag, values in _FUZZ_FLAGS[command]:
        # --radius is always drawn: its default, 10, is one of its values; and
        # integrate's required --terms, whose absence the spellings below draw
        values = values[pick]
        always = flag == "--radius" or command == "integrate"
        value = draw(values if always else st.none() | values)
        if value is not None:
            argv.append(f"{flag}={value}")
    return argv


def _load_bench_oracle():
    """`bench/oracle.py`, loaded by path: the checkers the benchmark runs on
    each output it reads, which import nothing of the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_ORACLE = _load_bench_oracle()


def _check_output(args, out):
    """Check an exit-0 stdout against the oracles.  Lists of numbers are read
    by `Fraction`, which reads every literal `parse_rational` takes; the
    other inputs by the package's parser."""
    def numbers(text):
        return [Fraction(x) for x in text.split(",")]

    if args.command == "vandermonde":
        BENCH_ORACLE.check_vandermonde(numbers(args.points), args.degree, out)
        return
    roots = (numbers(args.roots) if args.roots is not None
             else poleint.cli._root_config(args).roots)
    if args.command == "integrate":
        BENCH_ORACLE.check_integrate(roots, args.terms, out)
    elif args.command == "identities":
        max_k = len(roots) + 10 if args.max_k is None else args.max_k
        BENCH_ORACLE.check_identities(roots, max_k, out)
    elif args.command == "limit":
        BENCH_ORACLE.check_limit(roots, numbers(args.scales), args.terms, args.max_l, out)
    else:
        numerator = parse_poly(args.num)
        if all(c.denominator == 1 for c in numerator.coefficients):
            BENCH_ORACLE.check_pfd(roots, [int(c) for c in numerator.coefficients], out)
        else:  # check_pfd takes integer coefficients alone
            check_pfd_document(roots, numerator, out)


def _one_error_line(text):
    return text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n")


def _fuzzed_main(argv):
    """main's outcome on argv, which the reader reads as argparse does.  A
    usage error exits 2 with nothing on stdout and its text on stderr.  Exit 0
    prints what the oracles print, with no nan or inf, and nothing on stderr.
    Exit 1 prints one error line alone.  Exit 3 prints one error line alone,
    or a failing check's whole output and nothing on stderr."""
    reading = _read_as_argparse_reads(argv)
    code, out, err = run_main(argv)
    if isinstance(reading, tuple):
        assert (code, out, err) == (poleint.cli.EXIT_USAGE, "", reading[1] + "\n")
    assert code in {0, 1, 2, 3}
    if code == 0:
        words = set(re.findall(r"[a-z]+", out.lower()))
        assert err == "" and not words & {"nan", "inf", "infinity"}, argv
        _check_output(reading, out)
    elif code == 1:
        assert out == "" and _one_error_line(err), argv
    elif code == 2:
        assert out == "" and err.endswith("\n"), argv
    elif out == "":
        assert _one_error_line(err), argv
    else:
        failed = ('"paths_agree": false', '"reconstruction_ok": false', "pass=false")
        assert err == "" and any(text in out for text in failed), argv


# Derandomized and without an example database, so every run of the suite
# tries the same 300 argument lists.
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_cli_argv())
def test_fuzz_main_exits_with_a_documented_code(argv):
    _fuzzed_main(argv)


# The other spellings of a request: flags in any order, repeated, missing or
# unknown, cut to a unique or an ambiguous prefix, and each value joined as
# --flag=value, separate, or missing.  Values are drawn by the flag's type,
# mostly well-formed and small, so that a request the reader takes runs in a
# moment, or are one of the odd words.  No word asks for help: the reader
# takes -h where a flag may stand before any usage error, while argparse
# defers an unknown flag's error past it.
_ODD_VALUES = ["--", "", "--roots"]
_SPELLED_VALUES = {
    kind: st.sampled_from(values + _ODD_VALUES) for kind, values in [
        (int, ["7", "3", "-1", "abc"] * 2),
        (float, ["10", "-5", "nan", "x"] * 2),
        (str, ["1,2", "-1,2", "1/2,1/3", "z*(z-1)", "json", "xml", "1, 2"] * 2),
    ]
}
_UNKNOWN_WORDS = ["--bogus", "-x", "extra"]


@st.composite
def _spelled_argv(draw):
    command = draw(st.sampled_from(sorted(poleint.cli._SUBCOMMANDS)))
    _, _, rooted, flags = poleint.cli._SUBCOMMANDS[command]
    spec = {**(poleint.cli._ROOT_GROUP if rooted else {}), **flags}
    names = [name for name in spec if name != "--den"]  # --roots or --den below
    if rooted and draw(st.booleans()):
        names[0] = "--den"
    names += draw(st.lists(st.sampled_from([*spec, *_UNKNOWN_WORDS]), max_size=2))
    names = draw(st.permutations(names))
    names = names[: len(names) - draw(st.sampled_from([0, 0, 1]))]  # at times one missing
    argv = [command]
    for name in names:
        if name in _UNKNOWN_WORDS[1:]:
            argv.append(name)
            continue
        spelled = draw(st.sampled_from([name, name[:3], name[:4]]))
        kind = spec[name].get("type", str) if name in spec else str
        value = draw(_SPELLED_VALUES[kind])
        joined, separate, missing = [f"{spelled}={value}"], [spelled, value], [spelled]
        argv += draw(st.sampled_from([joined, separate] * 3 + [missing]))
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_spelled_argv())
def test_fuzz_every_spelling_reads_as_argparse_reads(argv):
    _fuzzed_main(argv)
