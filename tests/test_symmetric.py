import fractions
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from poleint import (
    SymmetricTable,
    complete_homogeneous,
    determinant,
    generalized_vandermonde,
    vandermonde_matrix,
    vandermonde_product,
)
from poleint.symmetric import MAX_EXPANSION_BITS, bordered_determinants

from conftest import rationals
from oracles import (
    complete_homogeneous_direct,
    determinant_cofactor,
    symmetric_recurrence,
)

distinct_points = st.lists(rationals, min_size=1, max_size=6, unique=True)
# n = 1..6 rows of n - 1 shared entries and 1..3 border entries
bordered_matrices = st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
    lambda nk: st.lists(
        st.lists(rationals, min_size=sum(nk) - 1, max_size=sum(nk) - 1),
        min_size=nk[0], max_size=nk[0],
    )
)


def borders(matrix):
    """The square matrices [A | b], one for each border column b of the matrix."""
    n = len(matrix)
    return [[row[: n - 1] + [row[j]] for row in matrix]
            for j in range(n - 1, len(matrix[0]))]


def elementary(values):
    return SymmetricTable.build(values, 0).e


class TestElementary:
    def test_pair(self):
        assert elementary([1, 2]) == (1, 3, 2)

    def test_single(self):
        a = F(3, 4)
        assert elementary([a]) == (1, a)

    def test_all_zero(self):
        assert elementary([0, 0, 0]) == (1, 0, 0, 0)

    def test_matches_polynomial_coefficients(self):
        # coefficient of z^(q-k) in prod (z - a_j) is (-1)^k e_k
        from poleint import Poly

        roots = [F(1, 2), F(-2), F(3)]
        e = elementary(roots)
        p = Poly.from_roots(roots)
        for k in range(len(roots) + 1):
            assert p.coefficients[len(roots) - k] == (-1) ** k * e[k]


class TestCompleteHomogeneous:
    @pytest.mark.parametrize("l,expected", [(0, 1), (1, 3), (2, 7), (3, 15)])
    def test_pair_fixture(self, l, expected):
        assert complete_homogeneous([1, 2], l) == expected

    def test_direct_enumeration_fixture(self):
        # tuples (1,1,1), (1,1,2), (1,2,2), (2,2,2) -> 1 + 2 + 4 + 8
        assert complete_homogeneous_direct([1, 2], 3) == 15

    def test_direct_single_variable(self):
        assert complete_homogeneous_direct([1], 5) == 1

    def test_direct_empty_variables(self):
        assert complete_homogeneous_direct([], 1) == 0
        assert complete_homogeneous_direct([], 4) == 0

    def test_degree_zero_is_one(self):
        assert complete_homogeneous([], 0) == 1
        assert complete_homogeneous([5, 6], 0) == 1

    def test_budget_exceeded(self):
        with pytest.raises(ValueError, match="budget"):
            complete_homogeneous_direct(list(range(1, 41)), 10)

    @given(st.lists(rationals, max_size=5), st.integers(0, 8))
    def test_recurrence_matches_enumeration(self, values, l):
        assert complete_homogeneous(values, l) == complete_homogeneous_direct(
            values, l
        )

    @given(st.lists(rationals, min_size=2, max_size=5), st.integers(0, 6))
    def test_permutation_invariance(self, values, l):
        rotated = values[1:] + values[:1]
        assert complete_homogeneous(values, l) == complete_homogeneous(rotated, l)

    @given(st.lists(rationals, max_size=6), st.integers(0, 10))
    def test_table_matches_recurrence(self, values, depth):
        table = SymmetricTable.build(values, depth)
        assert (table.e, table.h) == symmetric_recurrence(values, depth)
        assert table.q == len(values) and table.depth == depth

    @given(st.lists(rationals, max_size=5), st.integers(1, 8))
    def test_newton_type_relation(self, values, depth):
        table = SymmetricTable.build(values, depth)
        for l in range(1, depth + 1):
            acc = F(0)
            for i in range(0, min(l, table.q) + 1):
                acc += (-1) ** i * table.e[i] * table.h[l - i]
            assert acc == 0


class TestDeterminant:
    def test_identity(self):
        assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_row_swap_flips_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_bareiss_zero_pivot_swap(self):
        m = [[0, 1, 2], [1, 0, 3], [4, 5, 0]]
        assert determinant(m) == determinant_cofactor(m)

    @given(bordered_matrices)
    @settings(max_examples=60)
    @example([[0, 1, 2, 3], [1, 0, 3, 4], [4, 5, 0, 1]])  # zero first pivot
    @example([[1, 1, 1, 1], [1, 1, 1, 1], [1, 2, 4, 16]])  # repeated point 1, 1, 2
    @example([[1, 2, 5, 6], [2, 4, 7, 8], [3, 6, 9, 1]])  # singular shared block
    @example([[F(1, 2), F(1, 4), 0], [1, F(1, 2), F(1, 3)], [1, 1, 1]])  # later swap
    @example([[F(-3, 7), 5, F(2, 9)]])  # n = 1: three 1 x 1 determinants
    def test_cofactor_and_bareiss_agree(self, m):
        # every border at once, each against the cofactor oracle and `determinant`
        squares = borders(m)
        expected = [determinant_cofactor(square) for square in squares]
        assert bordered_determinants(m) == expected
        assert [determinant(square) for square in squares] == expected

    def test_zero_pivot_swap_in_rational_rows(self):
        assert determinant([[0, F(1, 2)], [F(1, 3), 5]]) == F(-1, 6)

    def test_hilbert_12_matches_closed_form(self):
        # det H_n = c_n^4 / c_2n, with c_n = prod_{i<n} i!
        def c(n):
            return math.prod(math.factorial(i) for i in range(n))

        hilbert = [[F(1, i + j + 1) for j in range(12)] for i in range(12)]
        assert determinant(hilbert) == F(c(12) ** 4, c(24))


class _GcdCountingMath:
    """The `math` module, with its `gcd` calls counted."""

    def __init__(self):
        self.gcds = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.gcds += 1
        return math.gcd(*args)


@pytest.mark.parametrize("fn", [determinant, vandermonde_product],
                         ids=["determinant", "vandermonde_product"])
def test_integer_elimination_calls_gcd_at_most_once(monkeypatch, fn):
    # Fraction normalizes through `math.gcd`: arithmetic on Fractions inside
    # the loops would call it once per operation, the integer kernels once.
    pts = [F(2 * k + 1, 3 * k + 2) for k in range(8)]
    arg = vandermonde_matrix(pts, 2) if fn is determinant else pts
    counting = _GcdCountingMath()
    monkeypatch.setattr(fractions, "math", counting)
    fn(arg)
    assert counting.gcds <= 1


class TestVandermonde:
    def test_product_fixture(self):
        assert vandermonde_product([0, 1, 2]) == 2

    def test_repeated_point_gives_zero(self):
        a = F(5, 3)
        assert vandermonde_product([a, a]) == 0

    def test_single_point(self):
        assert vandermonde_product([F(9, 2)]) == 1

    def test_determinant_matches_product_fixture(self):
        assert determinant(vandermonde_matrix([0, 1, 2])) == 2

    @given(distinct_points)
    def test_determinant_matches_product(self, pts):
        assert determinant(vandermonde_matrix(pts)) == vandermonde_product(pts)

    @given(distinct_points, rationals)
    def test_append_point_recurrence(self, pts, extra):
        # V_{n+1}(x_1..x_{n+1}) = (-1)^n prod(x_i - x_{n+1}) V_n(x_1..x_n)
        n = len(pts)
        lhs = vandermonde_product(list(pts) + [extra])
        prod = F(1)
        for x in pts:
            prod *= x - extra
        assert lhs == (-1) ** n * prod * vandermonde_product(pts)


class TestGeneralizedVandermonde:
    def test_pair_degree_one(self):
        # det [[1, 1], [1, 4]] = 3 = V_2 * h_1
        assert generalized_vandermonde([1, 2], 1) == 3

    def test_pair_degree_two(self):
        # det [[1, 1], [1, 8]] = 7 = V_2 * h_2
        assert generalized_vandermonde([1, 2], 2) == 7

    def test_repeated_points_vanish(self):
        assert generalized_vandermonde([3, 3], 2) == 0

    def test_single_point(self):
        a = F(2, 3)
        assert generalized_vandermonde([a], 4) == a**4

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            generalized_vandermonde([1, 2], 0)

    @given(distinct_points, st.integers(1, 6))
    @settings(max_examples=60)
    @example([1, 1, 2], 2)  # the shared columns 1, x have a singular leading block
    @example([F(2, 3), F(2, 3), F(2, 3), 5], 1)  # 1, x, x^2: rank 2, no pivot left
    def test_factors_as_product_times_h(self, pts, l):
        v, h = vandermonde_product(pts), complete_homogeneous(pts, l)
        assert generalized_vandermonde(pts, l) == v * h
        # one elimination, bordered by x^(n-1) and x^(n-1+l), gives V and V_l
        n, rows = len(pts), vandermonde_matrix(pts, 0, l)
        assert rows == [row + [F(x) ** (n - 1 + l)]
                        for row, x in zip(vandermonde_matrix(pts), pts)]
        assert bordered_determinants(rows) == [v, v * h]


def test_library_calls_keep_the_size_rules():
    # one 30-bit root 1/p: 31 bits, so 1471 moments run and 1472 are refused
    root = [F(1, 1073741789)]
    assert complete_homogeneous(root, 1469) == F(1, 1073741789**1469)
    assert (1 + 1471**2) * 31 <= MAX_EXPANSION_BITS < (1 + 1472**2) * 31
    for call in (complete_homogeneous, SymmetricTable.build):
        with pytest.raises(ValueError, match="1472 moments at q = 1 could hold 67170335"):
            call(root, 1470)
    for call in (vandermonde_matrix, lambda pts: generalized_vandermonde(pts, 1)):
        with pytest.raises(ValueError, match="above MAX_ELIMINATION_BITS = 67108864"):
            call(range(1, 401))
