import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynspan.exact import (
    CycNumber,
    ExactMatrix,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    mobius,
)
from oracles import brute_rank, cyclotomic_product, perm_det

# the 4x6 value matrix of the three sorted-entry statistics and their shifts
# for two-symbol rotation on 3-element multisets; rank is k+1 = 4
ROTATION_4x6 = [
    [0, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 1],
    [0, 1, 1, 0, 0, 1],
    [1, 1, 1, 0, 0, 0],
]


class TestRank:
    def test_identity(self):
        assert ExactMatrix.identity(3).rank() == 3

    def test_rotation_value_matrix(self):
        assert ExactMatrix.from_rows(ROTATION_4x6).rank() == 4

    def test_proportional_rows(self):
        assert ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    def test_fractional_entries(self):
        m = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        )
        assert m.rank() == brute_rank(m.entries)


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert ExactMatrix.identity(2).nullspace_basis() == []

    def test_single_constraint(self):
        (v,) = ExactMatrix.from_rows([[1, 1]]).nullspace_basis()
        assert v[0] == -v[1] != 0

    def test_shifted_difference_3x4(self):
        # difference of the 3x4 two-symbol k=2 value matrix and its block
        # rotation, derived by hand: middle row vanishes, rank 1
        diff = ExactMatrix.from_rows(
            [[-1, -1, 1, 1], [0, 0, 0, 0], [1, 1, -1, -1]]
        )
        assert diff.rank() == 1
        basis = diff.nullspace_basis()
        assert len(basis) == 3
        for v in basis:
            assert all(x == 0 for x in diff.apply(v))
        assert brute_rank(basis) == 3


class TestColumnBasis:
    def test_identity(self):
        assert ExactMatrix.identity(3).column_basis() == [0, 1, 2]

    def test_block_sum_matrix(self):
        m = ExactMatrix.from_rows([[1, 1, 1], [0, 1, 2], [0, 1, 2], [1, 1, 1]])
        assert m.column_basis() == [0, 1]

    def test_zero_first_column_is_skipped(self):
        m = ExactMatrix.from_rows([[0, 1], [0, 2]])
        assert m.column_basis() == [1]


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize(
        "d,coeffs",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_known_values(self, d, coeffs):
        assert cyclotomic_polynomial(d) == coeffs

    @pytest.mark.parametrize("n", range(1, 25))
    def test_product_over_divisors(self, n):
        prod = [1]
        for d in divisors(n):
            factor = cyclotomic_polynomial(d)
            new = [0] * (len(prod) + len(factor) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(factor):
                    new[i + j] += a * b
            prod = new
        assert prod == [-1] + [0] * (n - 1) + [1]

    @pytest.mark.parametrize("d", range(1, 25))
    def test_degree_is_phi(self, d):
        assert len(cyclotomic_polynomial(d)) == euler_phi(d) + 1


def test_number_theory_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cyc_numbers(draw, max_order=12, nonzero=False):
    order = draw(st.integers(1, max_order))
    coeffs = draw(
        st.lists(
            small_fractions, min_size=euler_phi(order), max_size=euler_phi(order)
        )
    )
    value = CycNumber(order, tuple(coeffs))
    if nonzero and not value:
        value = value + CycNumber.one(order)
    return value


@st.composite
def cyc_triples(draw, max_order=12):
    order = draw(st.integers(1, max_order))
    phi = euler_phi(order)

    def one():
        coeffs = draw(st.lists(small_fractions, min_size=phi, max_size=phi))
        return CycNumber(order, tuple(coeffs))

    return one(), one(), one()


class TestCycNumber:
    @given(cyc_triples())
    def test_field_laws(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(cyc_triples())
    def test_integer_representation(self, triple):
        a, b, c = triple
        assert CycNumber(a.order, a.coeffs) == a
        for value in (a, a * b, a - c, -b):
            assert value.den > 0 and math.gcd(value.den, *value.num) == 1
        # equal values built two ways compare and hash equal
        for left, right in (((a + b) - b, a), ((a * b) * c, a * (b * c))):
            assert left == right and hash(left) == hash(right)
        if b:
            assert (a * b) / b == a and hash((a * b) / b) == hash(a)
        product = cyclotomic_product(a.coeffs, b.coeffs, cyclotomic_polynomial(a.order))
        assert (a * b).coeffs == product

    @given(cyc_numbers(nonzero=True))
    def test_inverse(self, a):
        assert a * a.inverse() == CycNumber.one(a.order)
        assert a / a == 1

    @given(st.integers(1, 16))
    def test_root_has_multiplicative_order_dividing_d(self, d):
        zeta = CycNumber.root(d)
        assert zeta**d == CycNumber.one(d)

    @given(st.integers(2, 16))
    def test_root_sum_vanishes(self, d):
        total = CycNumber.zero(d)
        for t in range(d):
            total = total + CycNumber.root(d, t)
        assert not total

    @given(st.integers(1, 16))
    def test_root_satisfies_its_minimal_polynomial(self, d):
        zeta = CycNumber.root(d)
        value = CycNumber.zero(d)
        for i, c in enumerate(cyclotomic_polynomial(d)):
            value = value + zeta**i * c
        assert not value

    def test_rational_comparison_and_coercion(self):
        x = CycNumber.from_rational(Fraction(3, 2), 5)
        assert x == Fraction(3, 2)
        assert x + Fraction(1, 2) == 2
        assert 1 - CycNumber.root(4) == CycNumber(4, (Fraction(1), Fraction(-1)))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CycNumber.root(3) + CycNumber.root(4)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            CycNumber(4, (Fraction(1),))

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CycNumber.zero(5).inverse()


int_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestEliminationProperties:
    @given(int_matrices)
    def test_rank_matches_brute_force(self, rows):
        assert ExactMatrix.from_rows(rows).rank() == brute_rank(rows)

    @given(int_matrices, st.randoms())
    def test_rank_invariant_under_row_permutation(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert (
            ExactMatrix.from_rows(shuffled).rank()
            == ExactMatrix.from_rows(rows).rank()
        )

    @given(int_matrices)
    def test_rank_nullity(self, rows):
        m = ExactMatrix.from_rows(rows)
        assert m.rank() + len(m.nullspace_basis()) == m.cols

    @given(int_matrices)
    def test_nullspace_vectors_annihilate(self, rows):
        m = ExactMatrix.from_rows(rows)
        basis = m.nullspace_basis()
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        if basis:
            assert brute_rank(basis) == len(basis)

    @given(int_matrices)
    def test_column_basis_is_greedy_left_to_right(self, rows):
        m = ExactMatrix.from_rows(rows)
        picked = m.column_basis()
        chosen: list[list] = []
        expected = []
        for c in range(m.cols):
            candidate = chosen + [list(m.column(c))]
            if brute_rank(candidate) == len(candidate):
                chosen = candidate
                expected.append(c)
        assert picked == expected


square_int_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestDeterminant:
    @given(square_int_matrices)
    def test_cofactor_matches_permutation_expansion(self, rows):
        m = ExactMatrix.from_rows(rows)
        assert m.det_cofactor() == perm_det(rows)

    def test_cyclotomic_determinant(self):
        z = CycNumber.root(4)
        m = ExactMatrix.from_rows([[z, 1], [1, z]])
        assert m.det_cofactor() == z * z - 1
        assert m.det_cofactor() == perm_det(m.entries)


class TestMatrixAlgebra:
    def test_product_and_power(self):
        a = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert a * a == ExactMatrix.identity(2)
        assert a**2 == ExactMatrix.identity(2)
        assert a**5 == a

    def test_apply(self):
        a = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)

    def test_cyclotomic_rank(self):
        z = CycNumber.root(8)
        dependent = ExactMatrix.from_rows([[z, 1], [z * z, z]])
        assert dependent.rank() == 1
        independent = ExactMatrix.from_rows([[z, 1], [1, z]])
        assert independent.rank() == 2

    def test_cyclotomic_nullspace(self):
        z = CycNumber.root(8)
        m = ExactMatrix.from_rows([[z, 1], [z * z, z]])
        (v,) = m.nullspace_basis()
        assert all(not x for x in m.apply(v))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([])
