"""Value semantics shared by the package's immutable values.

One sample of each record type is checked for construction, normalization,
equality, hashing, immutability, repr, pickling and pattern matching.  The
same checks run on the plain-tuple results of `partial_fractions`,
`check_moment_identities` and `scaling_limit_table`, each built by its
function.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from poleint import (
    InvZSeries,
    Poly,
    RootConfig,
    SymmetricTable,
    check_moment_identities,
    partial_fractions,
    scaling_limit_table,
)

# (type, field names, arguments, arguments of an unequal value, repr)
SAMPLES = [
    (
        Poly, ("coefficients",), ((1, F(1, 2)),), ((1, 2),),
        "Poly(coefficients=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        InvZSeries, ("truncation", "coefficients"), (1, (0, F(1, 2))), (1, (0, 1)),
        "InvZSeries(truncation=1, coefficients=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (
        RootConfig, ("roots",), ((1, F(1, 2)),), ((1, 2),),
        "RootConfig(roots=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        SymmetricTable, ("q", "depth", "e", "h"),
        (1, 1, (F(1), F(2)), (F(1), F(2))), (1, 1, (F(1), F(2)), (F(1), F(3))),
        "SymmetricTable(q=1, depth=1, e=(Fraction(1, 1), Fraction(2, 1)),"
        " h=(Fraction(1, 1), Fraction(2, 1)))",
    ),
]

# (function, parameter names, arguments, arguments of an unequal result,
# repr).  The rows keep the names of the records these tuples replaced.
RESULTS = [
    (
        partial_fractions, ("numerator", "cfg"),
        (Poly((1,)), RootConfig((1,))), (Poly((1,)), RootConfig((2,))),
        "((Fraction(0, 1), Fraction(-1, 1)), (Fraction(1, 1), Fraction(1, 1)))",
    ),
    (
        check_moment_identities, ("cfg", "max_k"),
        (RootConfig((1,)), 1), (RootConfig((1,)), 2),
        "((0, Fraction(0, 1), Fraction(0, 1)), (1, Fraction(1, 1), Fraction(1, 1)))",
    ),
    (
        scaling_limit_table,
        ("cfg", "scales", "radius", "samples", "truncation", "max_l"),
        (RootConfig((1,)), ("1/2",), 4.0, 8, 2, 1),
        (RootConfig((1,)), ("1/4",), 4.0, 8, 2, 1),
        "((Fraction(1, 2), (Fraction(-1, 1), Fraction(-1, 4)), 0.015625),)",
    ),
]
RESULT_IDS = ["PartialFractions", "MomentIdentityRow", "ScaleRow"]

samples = pytest.mark.parametrize(
    "cls, names, args, other, text", SAMPLES + RESULTS,
    ids=[s[0].__name__ for s in SAMPLES] + RESULT_IDS,
)


def is_record(cls):
    return isinstance(cls, type)


def nested_tuples_only(value):
    """True when no list, dict or set hides anywhere inside value."""
    if isinstance(value, tuple):
        return type(value) is tuple and all(map(nested_tuples_only, value))
    return not isinstance(value, (list, dict, set))


@samples
def test_equality_by_field(cls, names, args, other, text):
    value = cls(*args)
    assert value == cls(*args)
    assert not value != cls(*args)
    assert value != cls(*other)
    assert (value == tuple(args)) is False
    if is_record(cls):
        assert value.__eq__(tuple(args)) is NotImplemented
    else:
        assert type(value) is tuple


@samples
def test_equal_values_hash_equal(cls, names, args, other, text):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@samples
def test_immutable_and_slotted(cls, names, args, other, text):
    value = cls(*args)
    if is_record(cls):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
            setattr(value, names[0], args[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
            delattr(value, names[0])
    else:
        with pytest.raises(TypeError):
            value[0] = value[0]
        with pytest.raises(TypeError):
            value[0][0] = value[0][0]
        assert nested_tuples_only(value)
    assert not hasattr(value, "__dict__")
    assert value == cls(*args)


@samples
def test_repr(cls, names, args, other, text):
    assert repr(cls(*args)) == text


@samples
def test_positional_and_keyword_construction(cls, names, args, other, text):
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == value
    with pytest.raises(TypeError):
        cls(*args, args[0])
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args[:-1], unknown=1)
    if cls not in (Poly, scaling_limit_table):  # no default for the last one
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_poly_default_is_zero():
    assert Poly() == Poly(()) == Poly([0, 0])
    assert Poly().coefficients == ()


@samples
def test_pickle_and_copy_round_trip(cls, names, args, other, text):
    value = cls(*args)
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is (cls if is_record(cls) else tuple)
        assert clone == value
        assert repr(clone) == text


@samples
def test_match_args(cls, names, args, other, text):
    if not is_record(cls):
        match cls(*args):
            case ((first, *rest), *rows):
                assert (first, *rest) == cls(*args)[0]
                assert len(rows) == len(cls(*args)) - 1
            case _:
                pytest.fail("sequence pattern did not match")
        return
    assert cls.__match_args__ == names
    match cls(*args):
        case cls(first):
            assert first == getattr(cls(*args), names[0])
        case _:
            pytest.fail("class pattern did not match")


def test_match_by_keyword_and_position():
    match RootConfig(("1/2", 3)):
        case RootConfig(roots=(F(numerator=1, denominator=2), 3)):
            pass
        case _:
            pytest.fail("keyword pattern did not match")
    match InvZSeries(1, (0, F(1, 2))):
        case InvZSeries(truncation, coefficients):
            assert (truncation, coefficients) == (1, (0, F(1, 2)))
        case _:
            pytest.fail("positional pattern did not match")


def test_types_do_not_compare_across_classes():
    values = (F(1), F(2))
    assert RootConfig(values) != Poly(values)
    assert RootConfig(values).roots == Poly(values).coefficients


class TestConstructorsNormalize:
    def test_string_roots_become_fractions(self):
        cfg = RootConfig(("1/2", "3"))
        assert cfg.roots == (F(1, 2), F(3))
        assert all(type(r) is F for r in cfg.roots)

    def test_duplicate_roots_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            RootConfig(("1/2", F(1, 2)))
        with pytest.raises(ValueError, match="distinct"):
            RootConfig(roots=(1, 1))

    def test_poly_strips_trailing_zeros(self):
        assert Poly((1, "2", 0, F(0))).coefficients == (F(1), F(2))
        assert Poly(coefficients=(0, 0)).coefficients == ()

    def test_series_checks_its_length(self):
        with pytest.raises(ValueError, match="expected 3 coefficients"):
            InvZSeries(2, (1, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            InvZSeries(truncation=-1, coefficients=())
