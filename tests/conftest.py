import os
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest

from poleint import Poly, RootConfig, helper

# Small exact rationals keep property-test arithmetic fast while still
# exercising reduction and sign handling.
rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
)
nonzero_rationals = rationals.filter(lambda x: x != 0)

polys = st.lists(rationals, max_size=9).map(Poly)
nonzero_polys = polys.filter(lambda p: p.coefficients)

root_tuples = st.lists(
    nonzero_rationals, min_size=1, max_size=5, unique=True
).map(tuple)
root_configs = root_tuples.map(RootConfig)

# `integrate` runs its residue kernel in a forked helper above the gate only
# where there is os.fork and a second CPU; elsewhere it runs in process.
HELPER_CAN_RUN = hasattr(os, "fork") and len(
    os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) > 1

# Denominators of the seeded root families: small primes, and 30-bit primes,
# the denominator size of the integrate-tall workload.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
PRIMES_30_BITS = (536870923, 536870951, 1073741717, 1073741723, 1073741789)


def random_fraction(rng: random.Random, bound: int = 1000) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def random_root_config(rng: random.Random, q: int, bound: int = 1000) -> RootConfig:
    roots: set[Fraction] = set()
    while len(roots) < q:
        roots.add(random_fraction(rng, bound))
    return RootConfig(tuple(roots))


@pytest.fixture(autouse=True)
def reap_the_residue_helper():
    """Reap the residue helper after each test, so that the next test's
    monkeypatches reach a freshly forked one."""
    yield
    helper.stop()
