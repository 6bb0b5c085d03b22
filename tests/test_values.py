"""Value semantics shared by the package's immutable record types.

One sample of each type is checked for construction, normalization,
equality, hashing, immutability, repr, pickling and pattern matching.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from poleint import (
    InvZSeries,
    MomentIdentityRow,
    PartialFractions,
    Poly,
    RootConfig,
    ScaleRow,
    SymmetricTable,
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
        PartialFractions, ("terms",),
        (((F(0), F(1)), (F(1), F(-1))),), (((F(0), F(1)),),),
        "PartialFractions(terms=((Fraction(0, 1), Fraction(1, 1)),"
        " (Fraction(1, 1), Fraction(-1, 1))))",
    ),
    (
        MomentIdentityRow, ("k", "lhs", "rhs"), (2, F(1), F(1)), (2, F(1), F(2)),
        "MomentIdentityRow(k=2, lhs=Fraction(1, 1), rhs=Fraction(1, 1))",
    ),
    (
        SymmetricTable, ("q", "depth", "e", "h"),
        (1, 1, (F(1), F(2)), (F(1), F(2))), (1, 1, (F(1), F(2)), (F(1), F(3))),
        "SymmetricTable(q=1, depth=1, e=(Fraction(1, 1), Fraction(2, 1)),"
        " h=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    (
        ScaleRow, ("scale", "coefficients", "sup_error"),
        (F(1, 2), (F(-1, 4),), 0.25), (F(1, 2), (F(-1, 4),), 0.5),
        "ScaleRow(scale=Fraction(1, 2), coefficients=(Fraction(-1, 4),),"
        " sup_error=0.25)",
    ),
]

samples = pytest.mark.parametrize(
    "cls, names, args, other, text", SAMPLES, ids=[s[0].__name__ for s in SAMPLES]
)


@samples
def test_equality_by_field(cls, names, args, other, text):
    value = cls(*args)
    assert value == cls(*args)
    assert not value != cls(*args)
    assert value != cls(*other)
    assert (value == tuple(args)) is False
    assert value.__eq__(tuple(args)) is NotImplemented


@samples
def test_equal_values_hash_equal(cls, names, args, other, text):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@samples
def test_immutable_and_slotted(cls, names, args, other, text):
    value = cls(*args)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(value, names[0], args[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(value, names[0])
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
    if cls is not Poly:
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_poly_default_is_zero():
    assert Poly() == Poly.zero() == Poly(())
    assert Poly().coefficients == ()


@samples
def test_pickle_and_copy_round_trip(cls, names, args, other, text):
    value = cls(*args)
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is cls
        assert clone == value
        assert repr(clone) == text


@samples
def test_match_args(cls, names, args, other, text):
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
    match MomentIdentityRow(4, F(1), F(2)):
        case MomentIdentityRow(k, lhs, rhs):
            assert (k, lhs, rhs) == (4, 1, 2)


def test_types_do_not_compare_across_classes():
    values = (F(1), F(2))
    assert RootConfig(values) != Poly(values)
    assert RootConfig(values).roots == Poly(values).coefficients


class TestPostInitStillRuns:
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
