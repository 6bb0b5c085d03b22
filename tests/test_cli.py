import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from poleint.cli import main

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

    def test_terms_below_minimum_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "integrate", "--roots", "1,2", "--terms", "2")
        assert code == 2
        assert "--terms" in err

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

    def test_den_with_zero_root_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--den", "z*(z-0)", "--terms", "6"
        )
        assert code == 1
        assert "nonzero" in err


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

    def test_numerator_degree_error(self, capsys):
        code, _, err = run_cli(capsys, "pfd", "--roots", "1,2", "--num", "z^5")
        assert code == 1
        assert "degree" in err


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
            (("--radius", "inf"), "radius"),
            (("--radius", "1e400"), "radius"),
            (("--max-l", "-1"), "max_l"),
        ],
    )
    def test_nonfinite_radius_and_negative_max_l_are_domain_errors(
        self, capsys, flags, message
    ):
        code, out, err = run_cli(
            capsys, "limit", "--roots", "1,2", "--scales", "1", *flags
        )
        assert code == 1 and out == ""
        assert message in err

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

    def test_deterministic(self, capsys):
        args = ("limit", "--roots", "1,2", "--scales", "1,1/2", "--samples", "8",
                "--terms", "6")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


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

    @pytest.mark.parametrize(
        "argv,offset",
        [
            (("pfd", "--roots", "1,2", "--num", "z\u00b2"), 1),  # superscript two
            (("pfd", "--roots", "\u0661,2"), 0),  # Arabic-Indic digit one
        ],
    )
    def test_non_ascii_digit_is_parse_error(self, capsys, argv, offset):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error at offset {offset}:")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "poleint", "identities", "--roots", "1,2", "--max-k", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == EXPECTED_IDENTITIES_TEXT
