"""Command-line front end.

Subcommands map one-to-one onto library entry points: `_SUBCOMMANDS` declares
each once, its handler, help line and flags, and `poleint --help` lists them.
Only `vandermonde` adds math of its own, prod * h_l; every size rule is the
library's, and `vandermonde --degree` runs the expansion rule and the matrix's
elimination rule before either kernel.

Exact values are printed as reduced "p/q" strings (denominator omitted when
it is 1); the only floating-point outputs are the sup errors of `limit`,
printed with 17 significant digits.  `integrate` prints the coefficients
and cross-check of `integrate.cross_checked`, each b_n off its factored
denominator s * D^k, with the powers of D multiplied in Decimal and the
numerator printed by `polynomial.format_quotient`.  Its document is one
f-string, byte for byte what `json.dumps(doc, indent=2)` would print: every
field is an int, a bool or a string of digits, "-" and "/".

`_read_argv` reads argv over that table into a namespace, or into the help
or first usage error that `main` prints: the CLI words both itself, so they
depend on neither the interpreter's version nor the terminal's width.  No
subcommand imports `json`: `integrate` and `pfd` each print one f-string.
`entry` owns the process: it flushes stdout and stderr and ends at `os._exit`
with `main`'s code, so no `atexit` handler or finalizer runs after it.  Tools
that wrap the module, such as cProfile or coverage, call `main`.

Exit codes: 0 success, 1 domain error (invalid roots and similar),
2 usage or parse error, 3 any exact identity check failed.
"""

from __future__ import annotations

import os
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, repeat
from types import SimpleNamespace

from .asymptotics import scaling_limit_table
from .integrate import (
    RootConfig,
    check_moment_identities,
    cross_checked,
    decomposes,
    partial_fractions,
)
from .parser import (
    PolyParseError,
    format_rational,
    parse_factored_denominator,
    parse_poly,
    parse_rational,
)
from .polynomial import EXACT, format_quotient
from .symmetric import (ExactCheckError, bordered_determinants, check_moment_size,
                        complete_homogeneous, scale_to_integers, vandermonde_matrix,
                        vandermonde_product)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


def _parse_rational_list(text: str) -> list[Fraction]:
    """Comma-separated rationals; a parse error's offset is into `text`."""
    values, start = [], 0
    for piece in text.split(","):
        try:
            values.append(parse_rational(piece.strip()))
        except PolyParseError as exc:
            exc.position += start + len(piece) - len(piece.lstrip())
            raise
        start += len(piece) + 1
    return values


def _root_config(args: SimpleNamespace) -> RootConfig:
    if args.roots is not None:
        return RootConfig(tuple(_parse_rational_list(args.roots)))
    return RootConfig(tuple(parse_factored_denominator(args.den)))


def _usage(command: str | None) -> str:
    """The usage line of a command, or of the program if command is None."""
    if command is None:
        return "poleint {" + ",".join(_SUBCOMMANDS) + "} ..."
    _, _, rooted, flags = _SUBCOMMANDS[command]
    words = ["poleint", command] + ["(--roots ROOTS | --den DEN)"] * rooted
    for flag, keywords in flags.items():
        word = f"{flag} {flag[2:].upper().replace('-', '_')}"
        words.append(word if keywords.get("required") else f"[{word}]")
    return " ".join(words)


def _help(command: str | None) -> tuple[int, str]:
    """Exit 0 and the help text of a command, or of the program."""
    head, rows = _DESCRIPTION, {c: entry[1] for c, entry in _SUBCOMMANDS.items()}
    if command is not None:
        _, head, rooted, flags = _SUBCOMMANDS[command]
        rows = {flag: kw["help"] + f" (default {kw.get('default')})" * ("default" in kw)
                for flag, kw in ({**_ROOT_GROUP, **flags} if rooted else flags).items()}
    width = max(map(len, rows))
    lines = [f"  {name:{width}}  {text}" for name, text in rows.items()]
    return EXIT_OK, "\n".join([f"usage: {_usage(command)}", "", head, "", *lines])


def _refusal(command: str | None, message: str) -> tuple[int, str]:
    return EXIT_USAGE, f"usage: {_usage(command)}\nerror: {message}"


def _read_argv(argv: list[str]) -> SimpleNamespace | tuple[int, str]:
    """The namespace of argv, or the exit code and text of its help or of its
    first usage error.  Each flag is --flag=value or --flag value, where the
    word after a flag is its value even if it starts with "-", and no value
    is "--".  A unique prefix names a flag, a repeated flag's last value wins,
    and -h or --help where a flag may stand, before any error, asks for help."""
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    _, _, rooted, flags = _SUBCOMMANDS.get(command, (None, "", False, {}))
    spec = {**_ROOT_GROUP, **flags} if rooted else flags
    given = {flag: keywords.get("default") for flag, keywords in spec.items()}
    words = iter(argv[1:] if command else argv)
    for word in words:
        name, eq, value = word.partition("=")
        found = [f for f in ("--help", *spec) if f.startswith(name) and len(name) > 2]
        if name == "-h" or found == ["--help"]:
            return _help(command)
        if len(found) != 1:
            return _refusal(command, f"argument {name}: could be {' or '.join(found)}"
                            if found else f"unrecognized argument {word}")
        flag, keywords = found[0], spec[found[0]]
        value = value if eq else next(words, "--")
        if value == "--":
            return _refusal(command, f"argument {flag}: expected a value")
        try:
            given[flag] = keywords.get("type", str)(value)
            if given[flag] not in keywords.get("choices", [given[flag]]):
                raise ValueError
        except ValueError:
            return _refusal(command, f"argument {flag}: invalid value {value!r}")
    if command is None:
        return _refusal(None, "expected a command: " + ", ".join(_SUBCOMMANDS))
    if rooted and (given["--roots"] is None) == (given["--den"] is None):
        return _refusal(command, "exactly one of --roots and --den is required")
    missing = [f for f in spec if spec[f].get("required") and given[f] is None]
    if missing:
        return _refusal(command, f"argument {missing[0]} is required")
    return SimpleNamespace(command=command,
                           **{f[2:].replace("-", "_"): v for f, v in given.items()})


def _terms_below_minimum(cfg: RootConfig, terms: int) -> bool:
    """Print the usage error of a --terms below q+1; True if there is one."""
    if terms <= cfg.q:
        print(f"error: --terms must be at least q+1 = {cfg.q + 1}, got {terms}",
              file=sys.stderr)
    return terms <= cfg.q


def _cmd_integrate(args: SimpleNamespace) -> int:
    cfg = _root_config(args)
    if _terms_below_minimum(cfg, args.terms):
        return EXIT_USAGE
    d, reduced, agree = cross_checked(cfg, args.terms)
    powers = [Decimal(1)]  # D^k for k = 0..N-q, one exact product each
    powers += accumulate(repeat(Decimal(d), args.terms - cfg.q), EXACT.multiply)
    values = [format_quotient(x, EXACT.multiply(s, powers[k])) for x, s, k in reduced]
    roots = ",".join(f'\n    "{format_rational(r)}"' for r in cfg.roots)
    rows = ",".join(f'\n    {{\n      "n": {n},\n      "value": "{v}"\n    }}'
                    for n, v in enumerate(["0", *values]))
    valuation = next(n for n, (num, _, _) in enumerate(reduced, 1) if num)
    # json.dumps(doc, indent=2) of the document, whose strings need no escaping
    print(f"""{{
  "q": {cfg.q},
  "roots": [{roots}
  ],
  "truncation": {args.terms},
  "b0_convention": "zero",
  "coefficients": [{rows}
  ],
  "valuation": {valuation},
  "paths_agree": {"true" if agree else "false"}
}}""")
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_pfd(args: SimpleNamespace) -> int:
    cfg = _root_config(args)
    numerator = parse_poly(args.num)
    pf = partial_fractions(numerator, cfg)
    ok = decomposes(numerator, pf)
    roots = ",".join(f'\n    "{format_rational(r)}"' for r in cfg.roots)
    terms = ",".join(f'\n    {{\n      "pole": "{format_rational(p)}",\n'
                     f'      "coefficient": "{format_rational(c)}"\n    }}'
                     for p, c in pf)
    # json.dumps(doc, indent=2) of the document.  Its strings need no escaping:
    # format_rational output and str(Poly) hold only digits, z ^ * + - / and spaces.
    print(f"""{{
  "q": {cfg.q},
  "roots": [{roots}
  ],
  "numerator": "{numerator}",
  "terms": [{terms}
  ],
  "coefficient_sum": "{format_rational(sum(c for _, c in pf))}",
  "reconstruction_ok": {"true" if ok else "false"}
}}""")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _print_checks(checks: list[tuple[str, Fraction, Fraction]], noun: str) -> int:
    """Print a `label lhs=... rhs=... pass=...` line per check and the tally
    of those that hold; the exit code."""
    oks = [lhs == rhs for _, lhs, rhs in checks]
    for (label, lhs, rhs), ok in zip(checks, oks):
        left = format_rational(lhs)
        right = left if ok else format_rational(rhs)  # a holding row prints one value
        print(f"{label} lhs={left} rhs={right} pass={'true' if ok else 'false'}")
    print(f"{sum(oks)}/{len(oks)} {noun} hold")
    return EXIT_OK if all(oks) else EXIT_CHECK_FAILED


def _cmd_identities(args: SimpleNamespace) -> int:
    cfg = _root_config(args)
    max_k = args.max_k if args.max_k is not None else cfg.q + 10
    rows = check_moment_identities(cfg, max_k)
    return _print_checks([(f"k={k}", lhs, rhs) for k, lhs, rhs in rows], "identities")


def _cmd_vandermonde(args: SimpleNamespace) -> int:
    points = _parse_rational_list(args.points)
    generalized = () if args.degree is None else (args.degree,)
    if any(l < 1 for l in generalized):
        raise ValueError("degree must be a positive integer")
    for l in generalized:  # both sides' size rules before either kernel
        check_moment_size(len(points), len(points) + 1 + l, *scale_to_integers(points))
    matrix = vandermonde_matrix(points, 0, *generalized)
    rhs = [complete_homogeneous(points, l) for l in generalized]
    det, *lhs = bordered_determinants(matrix)
    prod = vandermonde_product(points)
    checks = [("check=determinant_vs_product", det, prod)]
    checks += [(f"check=generalized_degree_{l}", x, prod * h)
               for l, x, h in zip(generalized, lhs, rhs)]
    return _print_checks(checks, "checks")


def _cmd_limit(args: SimpleNamespace) -> int:
    cfg = _root_config(args)
    if _terms_below_minimum(cfg, args.terms):
        return EXIT_USAGE
    rows = scaling_limit_table(cfg, _parse_rational_list(args.scales),
                               radius=args.radius, samples=args.samples,
                               truncation=args.terms, max_l=args.max_l)
    print("t,l,exact_b,numeric_sup_error")
    for scale, coefficients, sup_error in rows:
        for l, b in enumerate(coefficients):
            print(f"{format_rational(scale)},{l},{format_rational(b)},"
                  f"{sup_error:.17g}")
    return EXIT_OK


# Each subcommand once: its handler, help, whether it takes the required group
# --roots | --den, and its other flags, each with the keywords `_read_argv`
# reads: type (str unless given), required, default (None unless given),
# choices and help.  A flag's value is the attribute named after it, --max-k
# as max_k.  No flag is a prefix of another, so a prefix names at most one.
_DESCRIPTION = ("Exact series-at-infinity integration of 1/(z(z-a_1)...(z-a_q)) and\n"
                "the identities behind it.  poleint COMMAND --help lists its flags.")
_ROOT_GROUP = {
    "--roots": dict(help="comma-separated nonzero roots, e.g. 1,2,-3/4"),
    "--den": dict(help="denominator in explicit factored form, e.g. 'z*(z-1)*(z-2)'"),
}
_SUBCOMMANDS = {
    "integrate": (_cmd_integrate,
                  "both antiderivative routes and their cross-check (JSON)", True, {
        "--terms": dict(type=int, required=True,
                        help="series truncation N (need N >= q+1)"),
        "--format": dict(choices=["json"], default="json", help="output format: json"),
    }),
    "pfd": (_cmd_pfd, "partial fraction decomposition of P/Q (JSON)", True, {
        "--num": dict(default="1", help="numerator expression"),
    }),
    "identities": (_cmd_identities, "moment identity table (text)", True, {
        "--max-k": dict(type=int, help="largest moment index to check (default q+10)"),
    }),
    "vandermonde": (_cmd_vandermonde,
                    "determinant vs product, generalized factorization (text)", False, {
        "--points": dict(required=True, help="comma-separated points"),
        "--degree": dict(type=int,
                         help="also check the generalized determinant of this degree"),
    }),
    "limit": (_cmd_limit, "shrinking-root far-field table (CSV)", True, {
        "--scales": dict(default="1,1/2,1/4,1/8", help="comma-separated scales t"),
        "--radius": dict(type=float, default=10.0, help="radius of the sampled circle"),
        "--samples": dict(type=int, default=64, help="points sampled on it"),
        "--terms": dict(type=int, default=24, help="series truncation N"),
        "--max-l": dict(type=int, help="largest l to tabulate (default N-q)"),
    }),
}


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if isinstance(args, tuple):  # help (exit 0, on stdout) or a usage error
        code, text = args
        print(text, file=sys.stderr if code else sys.stdout)
        return code
    try:
        return _SUBCOMMANDS[args.command][0](args)
    except PolyParseError as exc:
        print(f"parse error at offset {exc.position}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ExactCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1  # the reader closed stdout early (signal docs, "Note on SIGPIPE")
    os._exit(code)  # skips teardown, so nothing writes to the closed pipe again
