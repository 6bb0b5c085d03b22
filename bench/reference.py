"""Fixed work that measures the speed of the machine at the moment.

On a shared host the same request can take a third longer for minutes at a
time, because other tenants hold the core or its caches; a run of under a
minute does not average that out.  So right before every request it
times, the benchmark times a reference of the same kind of work, and
scales the request's times to a machine on which the reference takes a
fixed time:

    scaled = measured * nominal / reference time (same clock)

In-process requests are scaled by `reference()`, big-integer and Fraction
arithmetic in pure Python (nominal REF_NS).  Work that starts a process (a
cli-cold request, a cold start behind setup_s) is scaled by a bare
`python -c pass` (nominal BARE_NS), because exec, page faults and imports
slow down with the host in a way arithmetic does not.  Neither reference
calls poleint, so a change to the program moves the scaled times and not
the reference.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import NamedTuple

# About the references' times on a 2-vCPU x86 VM.
REF_NS = 20_000_000
BARE_NS = 70_000_000

_INT = 3**6000
_ROOTS = tuple(
    Fraction(rng.randrange(1 << 29, 1 << 30), rng.randrange(1 << 29, 1 << 30))
    for rng in [random.Random(1)]
    for _ in range(10)
)
_ZERO = Fraction(0)


class Timing(NamedTuple):
    wall_ns: int
    cpu_ns: int

    def scaled(self, ref: Timing, nominal: int) -> Timing:
        """This timing on a machine where the reference takes `nominal` ns."""
        return Timing(self.wall_ns * nominal / ref.wall_ns, self.cpu_ns * nominal / ref.cpu_ns)


def reference() -> None:
    for _ in range(40):
        (_INT * _INT) // (_INT + 7)
    for _ in range(6):
        e = [Fraction(1)]  # elementary symmetric values of _ROOTS, up to sign
        for r in _ROOTS:
            e = [a - r * b for a, b in zip(e + [_ZERO], [_ZERO] + e)]
        total = _ZERO
        for k in range(len(e)):
            total += sum(e) * e[k]


def time_reference() -> Timing:
    cpu, start = time.thread_time_ns(), time.perf_counter_ns()
    reference()
    return Timing(time.perf_counter_ns() - start, time.thread_time_ns() - cpu)
