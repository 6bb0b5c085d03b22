"""Span tracing of poleint from outside the package.

`Tracer.install` rebinds each entry point in ENTRIES: a module function in
every `poleint.*` namespace that holds it, a method on its class.  Each call
then records a span (entry, start, end, parent span, op) in memory.
`uninstall` puts the originals back.  Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable

ENTRIES = (
    "cli.main",
    "parser.parse_rational",
    "parser.parse_factored_denominator",
    "parser.parse_poly",
    "parser.format_rational",
    "polynomial.Poly.from_roots",
    "polynomial.Poly.derivative",
    "polynomial.Poly.__call__",
    "series.InvZSeries.from_rational",
    "series.InvZSeries.antiderivative",
    "series.InvZSeries.log_factor",
    "series.InvZSeries.__add__",
    "series.InvZSeries.__mul__",
    "series.InvZSeries.agrees_with",
    "series.InvZSeries.evaluate",
    "symmetric.SymmetricTable.build",
    "symmetric.determinant",
    "symmetric.vandermonde_product",
    "symmetric.generalized_vandermonde",
    "integrate.integrate_via_expansion",
    "integrate.integrate_via_partial_fractions",
    "integrate.partial_fractions",
    "integrate.moment",
    "integrate.check_moment_identities",
    "asymptotics.scaling_limit_table",
)

# Entries whose returned values are measured in bits (largest numerator or
# denominator bit length).
BITS_ENTRIES = (
    "series.InvZSeries.from_rational",
    "series.InvZSeries.antiderivative",
    "series.InvZSeries.log_factor",
    "symmetric.SymmetricTable.build",
)


def result_bits(value: Any) -> int:
    """Largest numerator or denominator bit length in a series or table
    (an int is a bit length already measured in another process)."""
    if isinstance(value, int):
        return value
    if hasattr(value, "coefficients"):
        values = value.coefficients
    else:
        values = value.e + value.h
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.op = 0
        self.keep: list[tuple[str, Any]] | None = None  # results to size, when set
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, entry: int, fn: Callable, sized: bool) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (entry, start, end, parent, self.op)
            if sized and self.keep is not None:
                self.keep.append((ENTRIES[entry], result))
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("poleint.cli")  # loads every module that holds an entry
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "poleint"]
        for entry, dotted in enumerate(ENTRIES):
            module_name, *owner, attr = dotted.split(".")
            module = importlib.import_module(f"poleint.{module_name}")
            sized = dotted in BITS_ENTRIES
            if owner:
                cls = getattr(module, owner[0])
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(entry, raw.__func__, sized))
                else:
                    new = self._wrap(entry, raw, sized)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(entry, fn, sized)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, name, fn))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def merge(self, doc: dict) -> None:
        """Add the spans and bit lengths a traced child process wrote, as the
        current op."""
        offset = len(self.spans)
        for entry, start, end, parent, _ in doc["spans"]:
            self.spans.append((entry, start, end, parent + offset if parent >= 0 else -1, self.op))
        if self.keep is not None:
            self.keep.extend(doc["max_bits"].items())

    def max_bits(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, result in self.keep or ():
            out[name] = max(out.get(name, 0), result_bits(result))
        return out


def aggregate(spans) -> tuple[Counter, Counter, Counter]:
    """Per-entry self time (ns) and call count, plus the inclusive time of
    the top-level spans of each op."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    top_ns: Counter = Counter()
    for entry, start, end, parent, op in spans:
        name = ENTRIES[entry]
        duration = end - start
        self_ns[name] += duration
        calls[name] += 1
        if parent < 0:
            top_ns[op] += duration
        else:
            self_ns[ENTRIES[spans[parent][0]]] -= duration
    return self_ns, calls, top_ns
