import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynspan import exact
from dynspan.exact import (
    CycNumber,
    ExactMatrix,
    _cyc_reduce_int,
    _field,
    _gauss_jordan_closure,
    _int_product,
    _rotation_closure_rank,
    _streaming_echelon,
    _times_zeta_inverse,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    mobius,
)
from oracles import (
    _matmul,
    brute_rank,
    cyc_echelon,
    cyclotomic_product,
    gauss_pivots,
    gauss_rank,
    perm_det,
    rotation_closure_rank,
)
from oracles import cyclotomic_polynomial as oracle_cyclotomic_polynomial

# the 4x6 value matrix of the three sorted-entry statistics and their shifts
# for two-symbol rotation on 3-element multisets; rank is k+1 = 4
ROTATION_4x6 = [
    [0, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 1, 1],
    [0, 1, 1, 0, 0, 1],
    [1, 1, 1, 0, 0, 0],
]


IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestRank:
    def test_identity(self):
        assert ExactMatrix.from_rows(IDENTITY_3).rank() == 3

    def test_rotation_value_matrix(self):
        assert ExactMatrix.from_rows(ROTATION_4x6).rank() == 4

    def test_proportional_rows(self):
        assert ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    def test_fractional_entries(self):
        m = ExactMatrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        )
        assert m.rank() == brute_rank(m.entries)

    def test_shifted_difference_3x4(self):
        # difference of the 3x4 two-symbol k=2 value matrix and its block
        # rotation, derived by hand: middle row vanishes, rank 1
        diff = ExactMatrix.from_rows(
            [[-1, -1, 1, 1], [0, 0, 0, 0], [1, 1, -1, -1]]
        )
        assert diff.rank() == 1


class TestColumnBasis:
    def test_identity(self):
        assert ExactMatrix.from_rows(IDENTITY_3).column_basis() == [0, 1, 2]

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

    def test_binomial_product_matches_long_division(self):
        # prod_{e | d} (1 - x^e)^mu(d/e), and x - 1 at d = 1, against the
        # oracle's division of x^d - 1 by Phi_e for each proper divisor e
        for d in sorted(set(range(1, 301)) | set(divisors(5040))):
            assert cyclotomic_polynomial(d) == oracle_cyclotomic_polynomial(d), d


def test_sparse_reduction_matches_long_division():
    # longer than a product of two reduced elements or a sum of d slots,
    # reduced modulo Phi_d by the sparse terms of `_field` and by the
    # oracle's dense long division (a product with 1)
    rng = random.Random(120)
    for d in range(1, 121):
        phi, terms = _field(d)
        assert phi == euler_phi(d)
        length = max(d, 2 * phi - 1) + 1
        work = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(length)]
        expected = cyclotomic_product(work, (1,), cyclotomic_polynomial(d))
        _cyc_reduce_int(work, phi, terms)
        assert tuple(work[:phi]) == expected and not any(work[phi:])


def test_number_theory_helpers():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_memoised_divisors_are_a_new_list_each_call():
    # the divisors of each n are found once, and a caller may change its list
    first = divisors(55440)
    assert len(first) == 120 and first == sorted(first)
    first.clear()
    assert divisors(55440) is not divisors(55440)
    assert len(divisors(55440)) == 120
    for bad in (0, -4):
        with pytest.raises(ValueError):
            divisors(bad)
        with pytest.raises(ValueError):
            euler_phi(bad)
        with pytest.raises(ValueError):
            mobius(bad)


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


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
        product = cyclotomic_product(a.coeffs, b.coeffs, cyclotomic_polynomial(a.order))
        assert (a * b).coeffs == product

    @given(st.integers(1, 16))
    def test_root_has_multiplicative_order_dividing_d(self, d):
        assert math.prod([CycNumber.root(d)] * d) == CycNumber.one(d)

    @given(st.integers(2, 16))
    def test_root_sum_vanishes(self, d):
        total = CycNumber.zero(d)
        for t in range(d):
            total = total + CycNumber.root(d, t)
        assert not total

    @given(st.integers(1, 16))
    def test_root_satisfies_its_minimal_polynomial(self, d):
        value = CycNumber.zero(d)
        for i, c in enumerate(cyclotomic_polynomial(d)):
            value = value + CycNumber.root(d, i) * c
        assert not value

    def test_rational_comparison_and_coercion(self):
        x = CycNumber.from_rational(Fraction(3, 2), 5)
        assert x == Fraction(3, 2)
        assert x + Fraction(1, 2) == 2
        assert 1 - CycNumber.root(4) == CycNumber(4, (Fraction(1), Fraction(-1)))

    @pytest.mark.parametrize("order", [1, 2, 5])
    @pytest.mark.parametrize("value", [Fraction(1), Fraction(0), Fraction(-7, 3)])
    def test_rational_element_hashes_like_its_fraction(self, order, value):
        x = CycNumber.from_rational(value, order)
        assert x == value and hash(x) == hash(value)
        assert len({x, value}) == 1
        # an element that is not rational keeps its own hash
        if order == 5:
            assert CycNumber.root(5) != value
            assert hash(CycNumber.root(5)) == hash(CycNumber.root(5, 6))

    def test_rational_cyclotomic_matrix_equals_and_hashes_like_its_fractions(self):
        rows = [[Fraction(1, 3), Fraction(0)], [Fraction(-2), Fraction(5, 4)]]
        cyc = ExactMatrix.from_rows(
            [[CycNumber.from_rational(v, 5) for v in row] for row in rows]
        )
        rational = ExactMatrix.from_rows(rows)
        assert cyc.entries == rational.entries
        assert hash(cyc.entries) == hash(rational.entries)
        assert len({cyc.entries, rational.entries}) == 1

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CycNumber.root(3) + CycNumber.root(4)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            CycNumber(4, (Fraction(1),))


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
    def test_column_basis_is_greedy_left_to_right(self, rows):
        m = ExactMatrix.from_rows(rows)
        picked = m.column_basis()
        chosen: list[list] = []
        expected = []
        for c in range(m.cols):
            candidate = chosen + [[r[c] for r in m.entries]]
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


@st.composite
def q_square_matrices(draw):
    """Rational n x n matrices, n <= 6, with rows of their own denominators.

    Each row is as drawn (numerators past 2**64 among them), divided by a
    denominator of its own, zero, or a repeat of an earlier row.
    """
    n = draw(st.integers(0, 6))
    rows = draw(_q_block(n, n))
    for i in range(n):
        form = draw(st.sampled_from(["drawn", "divided", "zero", "repeat"]))
        if form == "divided":
            den = draw(st.integers(2, 2**70))
            rows[i] = [v / den for v in rows[i]]
        elif form == "zero":
            rows[i] = [Fraction(0)] * n
        elif form == "repeat" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return rows


class TestDeterminant:
    @given(square_int_matrices)
    def test_cofactor_matches_permutation_expansion(self, rows):
        m = ExactMatrix.from_rows(rows)
        assert m.det_cofactor() == perm_det(rows)

    @settings(max_examples=60)
    @given(q_square_matrices())
    @example([])
    @example([[Fraction(-7, 3)]])
    @example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2**65 + 1, 5), Fraction(3, 7)]])
    @example([[Fraction(1, 6), Fraction(5, 4)], [Fraction(1, 6), Fraction(5, 4)]])
    def test_rational_cofactor_matches_permutation_expansion(self, rows):
        # the integer rows expand to prod(s_i) * det; the result divides it out
        m = ExactMatrix.from_rows(rows) if rows else ExactMatrix([], 0, None)
        det = m.det_cofactor()
        assert type(det) is Fraction
        assert det == perm_det(rows)

    def test_cyclotomic_determinant(self):
        z = CycNumber.root(4)
        m = ExactMatrix.from_rows([[z, 1], [1, z]])
        assert m.det_cofactor() == z * z - 1
        assert m.det_cofactor() == perm_det(m.entries)
        assert type(m.det_cofactor()) is CycNumber

    def test_cyclotomic_determinant_with_rational_rows(self):
        z = CycNumber.root(5, 2)
        m = ExactMatrix.from_rows(
            [
                [z, Fraction(1, 2), 0],
                [Fraction(2, 3), z * z, Fraction(-1, 7)],
                [Fraction(1, 4), Fraction(5, 6), Fraction(3, 2)],
            ]
        )
        det = m.det_cofactor()
        assert type(det) is CycNumber
        assert det == perm_det(m.entries)


class TestIntegerProduct:
    def test_product_and_power(self):
        a = ((0, 1), (1, 0))
        assert _int_product(a, a) == ((1, 0), (0, 1))
        assert _int_product(_int_product(a, a), a) == a

    def test_vector(self):
        assert _int_product(((1, 2), (3, 4)), (1, 1)) == (3, 7)

    @given(int_matrices, st.data())
    def test_matches_fraction_products(self, rows, data):
        # rows times a random integer matrix of 3 columns, and times its first column
        row = st.lists(st.integers(-9, 9), min_size=3, max_size=3)
        other = data.draw(st.lists(row, min_size=len(rows[0]), max_size=len(rows[0])))
        want = _matmul(rows, other)
        got = _int_product(rows, other)
        assert got == tuple(map(tuple, want))
        assert all(type(v) is int for r in got for v in r)
        assert _int_product(rows, [r[0] for r in other]) == tuple(r[0] for r in want)


class TestMatrixAlgebra:
    def test_cyclotomic_rank(self):
        z = CycNumber.root(8)
        dependent = ExactMatrix.from_rows([[z, 1], [z * z, z]])
        assert dependent.rank() == 1
        independent = ExactMatrix.from_rows([[z, 1], [1, z]])
        assert independent.rank() == 2

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([])


KERNEL_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12)


@st.composite
def cyc_matrices(draw):
    """(order, rows) of CycNumber entries: random or built from a few base rows.

    Some rows and columns are then zeroed.  Tall random matrices usually
    have full column rank, where the kernel stops reading rows early.
    """
    order = draw(st.sampled_from(KERNEL_ORDERS))
    phi = euler_phi(order)
    zero = CycNumber.zero(order)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    coeffs = st.one_of(st.just(Fraction(0)), small_fractions)
    entry = st.lists(coeffs, min_size=phi, max_size=phi).map(
        lambda c: CycNumber(order, c)
    )
    if draw(st.booleans()):
        rows = draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
    else:
        base = draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=3
            )
        )
        rows = []
        for _ in range(nrows):
            weights = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            rows.append(
                [
                    sum((w * b[c] for w, b in zip(weights, base)), zero)
                    for c in range(ncols)
                ]
            )
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        rows[r] = [zero] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = zero
    return order, rows


def _realified(rows, order, ncols):
    """Each entry a replaced by the phi x phi matrix of x -> a*x over Q.

    Column j of that block holds the coefficients of a * zeta^j, the oracle
    product of column j - 1 and zeta.  Its rank over Q is phi times the rank
    over Q(zeta).
    """
    modulus = cyclotomic_polynomial(order)
    phi = len(modulus) - 1
    out = []
    for row in rows:
        blocks = []
        for c in range(ncols):
            block = [row[c].coeffs]
            while len(block) < phi:
                block.append(cyclotomic_product(block[-1], (0, 1), modulus))
            blocks.append(block)
        for i in range(phi):
            out.append([blocks[c][j][i] for c in range(ncols) for j in range(phi)])
    return out


@settings(max_examples=60)
@given(cyc_matrices())
@example((12, [[CycNumber.root(12)], [CycNumber.one(12)]]))
@example((8, [[CycNumber.root(8), 1], [CycNumber.root(8, 2), CycNumber.root(8)]]))
@example((8, [[CycNumber.root(8), 1], [1, CycNumber.root(8)]]))
def test_cyclotomic_kernel_matches_realified_rank(case):
    order, rows = case
    m = ExactMatrix.from_rows(rows)
    phi, ncols = euler_phi(order), m.cols
    real = _realified(m.entries, order, ncols)
    # a column of m is in its greedy basis when its block of the realified
    # matrix holds a pivot over Q
    real_pivots = gauss_pivots(real)
    assert len(real_pivots) % phi == 0 and m.rank() == len(real_pivots) // phi
    expected = sorted({c // phi for c in real_pivots})
    assert m.column_basis() == expected


def test_cyclotomic_echelon_reads_no_row_past_full_column_rank():
    # over Q(zeta_8), phi = 4: rows 0 and 4, a unit row each, and the images
    # under 1/zeta read right after each of them span all of Q^8 flat, so the
    # closure reads no row past row 4; rows 1-3, zeta^j times row 0, lie in
    # the closure of row 0
    phi, mod = _field(8)
    units = [[1, 0], [0, 1]]
    m = ExactMatrix.from_rows(
        [[CycNumber.root(8, j) * u for u in unit] for unit in units for j in range(phi)]
        + [[CycNumber.root(8), 1], [1, 1]]
    )
    read = []

    def rows():
        for _, row in m._integer_rows:
            read.append(row)
            yield row

    basis, generators = _streaming_echelon(rows(), m.cols * phi, _times_zeta_inverse(phi, mod))
    assert sorted(basis) == list(range(8)) and len(read) == 5
    assert generators == [0, 4]
    assert m.rank() == 2 and m.column_basis() == [0, 1]


# phi = 1, 1, 2, 2, 4, 6, 4, 6, 10, 4, 12, 8, 8, 12, 12, 12
WIDE_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 21, 28, 36)


@st.composite
def wide_cyc_matrices(draw):
    """(order, rows) over Q(zeta_order), phi up to 12: any shape, or tall and
    rank-deficient (a product of an r x t and a t x c matrix, t < c).
    Coefficients are small rationals, zero, or integers past 2**64."""
    order = draw(st.sampled_from(WIDE_ORDERS))
    phi = euler_phi(order)
    coeff = st.one_of(
        st.just(Fraction(0)),
        small_fractions,
        st.integers(2**64, 2**66).map(Fraction),
        st.integers(-(2**66), -(2**64)).map(Fraction),
    )
    entry = st.one_of(
        st.just(CycNumber.zero(order)),
        st.lists(coeff, min_size=phi, max_size=phi).map(lambda c: CycNumber(order, c)),
    )

    def block(nrows, ncols):
        return draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )

    if draw(st.booleans()):
        return order, block(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    nrows, ncols = draw(st.integers(4, 6)), draw(st.integers(2, 3))
    inner = draw(st.integers(1, ncols - 1))
    left, right = block(nrows, inner), block(inner, ncols)
    zero = CycNumber.zero(order)
    return order, [
        [sum((a * b[c] for a, b in zip(row, right)), zero) for c in range(ncols)]
        for row in left
    ]


@settings(max_examples=40, deadline=None)
@given(wide_cyc_matrices())
@example((13, [[CycNumber.root(13, 3), 1], [1, CycNumber.root(13, 10)]]))
@example((36, [[CycNumber.root(36)] * 2, [CycNumber.root(36, 2)] * 2, [2**65, 2**65]]))
# the ranks read off the store, with no elimination: a single row, a single
# column, all-zero rows, and one nonzero row among zero rows
@example((9, [[CycNumber.root(9), 2, CycNumber.root(9, 4) * Fraction(1, 3)]]))
@example((9, [[CycNumber.root(9)], [0], [CycNumber.root(9, 5) * 2**65]]))
@example((9, [[CycNumber.zero(9)] * 3] * 2))
@example((9, [[0, 0], [CycNumber.root(9, 2), Fraction(1, 3)], [0, 0]]))
def test_cyclotomic_queries_match_adjugate_echelon_and_realified_rank(case):
    """rank and column_basis over Q(zeta) against the Z[zeta]
    adjugate echelon of the oracles and the Fraction rank of the realified
    matrix, which share no elimination code with the library's closure."""
    order, rows = case
    m = ExactMatrix.from_rows(rows)
    phi, ncols = euler_phi(order), m.cols
    # the store's flat rows, cut into the coefficient vectors of their entries
    cut = ([r[i : i + phi] for i in range(0, len(r), phi)] for _, r in m._integer_rows)
    pivots = cyc_echelon(cut, ncols, order)[1]
    assert m.rank() == len(pivots)
    assert m.column_basis() == pivots
    # the pivots of the realified matrix over Q: phi per pivot of m, and a
    # column of m is in its greedy basis when its block holds one of them
    real = _realified(m.entries, order, ncols)
    real_pivots = gauss_pivots(real)
    assert len(real_pivots) == phi * len(pivots)
    assert sorted({c // phi for c in real_pivots}) == pivots


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_times_zeta_inverse_matches_cyclotomic_arithmetic(order):
    # entry by entry, the flat image is x * zeta^-1 in Q(zeta): each
    # coefficient moves down one degree and a nonzero constant wraps
    phi, mod = _field(order)
    inverse = CycNumber.root(order, -1)
    rng = random.Random(order)
    coeff = lambda: rng.choice((0, rng.randint(-9, 9), rng.randint(2**64, 2**66)))
    entries = [CycNumber.zero(order), CycNumber.one(order), CycNumber.root(order), inverse]
    entries += [CycNumber.root(order, phi - 1) * -3]
    entries += [CycNumber(order, [coeff() for _ in range(phi)]) for _ in range(8)]
    row = tuple(c for x in entries for c in x.num)
    assert _times_zeta_inverse(phi, mod)(row) == [c for x in entries for c in (x * inverse).num]


def _recording(step):
    """step, and the list of the rows it is given."""
    given_rows = []

    def wrapped(row):
        given_rows.append(list(row))
        return step(row)

    return wrapped, given_rows


def _assert_queues_padded_basis_rows(basis, given_rows, width):
    # each row that joins, but one that gives the last column its pivot,
    # queues the image of its basis row zero-padded to full width, in the
    # order the rows joined
    joined = list(basis.items())
    assert len(given_rows) == len(joined) - (len(joined) == width)
    assert given_rows == [[0] * c + list(tail) for c, tail in joined[: len(given_rows)]]


def test_rotation_closure_maps_each_basis_row():
    # row 0 joins divided by its content 2, and its rotations join before
    # row 1 is read, up to rank 3; row 1 is reduced against them before it
    # joins, and its rotations fill every column, so row 2 is never read
    rows = [(2, 4, 0, 6, 0, 0), (1, 0, 3, 0, 0, 1), (0, 0, 5, 1, 0, 0)]
    step, given_rows = _recording(lambda r: r[2:] + r[:2])
    basis, generators = _streaming_echelon(iter(rows), 6, step)
    _assert_queues_padded_basis_rows(basis, given_rows, 6)
    assert given_rows[:3] == [[1, 2, 0, 3, 0, 0], [0, 3, 0, 0, 1, 2], [0, 0, 1, 2, 0, 3]]
    assert given_rows[3][:4] == [0, 0, 0, -27] and generators == [0, 1]
    assert len(basis) == 6 == rotation_closure_rank([list(r) for r in rows], 2)
    assert rotation_closure_rank([list(rows[0])], 2) == 3


def test_cyclotomic_closure_maps_each_basis_row():
    # over Q(zeta_9), phi = 6: row 0 joins divided by its content 2, and row 1
    # is reduced against it before it joins
    z = CycNumber.root(9)
    m = ExactMatrix.from_rows(
        [[2 * z, 2, 0], [z, 1 + CycNumber.root(9, 4), z * z], [z * z * z, 0, 1]]
    )
    phi, mod = _field(9)
    step, given_rows = _recording(_times_zeta_inverse(phi, mod))
    width = m.cols * phi
    basis = _streaming_echelon((r for _, r in m._integer_rows), width, step)[0]
    _assert_queues_padded_basis_rows(basis, given_rows, width)
    assert given_rows[0][:2] == [0, 1] and given_rows[1] != list(m._integer_rows[1][1])
    # the closure is the row space over Q(zeta) read over Q: phi pivots per
    # pivot of the matrix, as its own echelon finds them
    cut = ([r[i : i + phi] for i in range(0, len(r), phi)] for _, r in m._integer_rows)
    pivots = cyc_echelon(cut, m.cols, 9)[1]
    assert len(basis) == phi * len(pivots) == phi * m.rank()
    assert m.column_basis() == pivots


closure_entries = st.one_of(
    st.integers(-50, 50), st.integers(2**64, 2**66), st.integers(-(2**66), -(2**64))
)


@st.composite
def closure_inputs(draw):
    """(rows, shift) of width d*shift, d in 1..6, with 1..width+3 rows.

    The row count falls on either side of 3/4 of the width, so both
    eliminations of the kernel run.  Each row repeats a block of e*shift
    entries for a divisor e of d, so its rotations stay in the
    e*shift-dimensional space of such rows and the closure may have any rank
    up to the width.  Some rows are then repeated.
    """
    shift = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    e = draw(st.sampled_from(divisors(d)))
    width = d * shift
    block = st.lists(closure_entries, min_size=e * shift, max_size=e * shift)
    rows = [b * (d // e) for b in draw(st.lists(block, min_size=1, max_size=width + 3))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return rows, shift


def rotation(shift, width):
    """The closure step of a rotation by `shift` entries, None where that is
    the identity, as `_rotation_closure_rank` passes it to either kernel."""
    return (lambda r: r[shift:] + r[:shift]) if width and shift % width else None


@settings(max_examples=80)
@given(closure_inputs())
@example(([[], [], []], 0))  # width 0, as for k = 0
@example(([[0, 0, 0, 0]] * 5, 2))  # rank 0
@example(([[1, -2, 0, 5]] * 5, 2))  # duplicate rows, rows >= width
@example(([[1, 0, 2, 0, 3, 0]] * 2, 2))  # duplicate rows, rows < width
@example(([[1, 0], [0, 1], [3, 4], [5, 6], [2**64, 1]], 1))  # full rank early
@example(([[1, 0, 0, 0]], 1))  # full rank from the rotations of one row
@example(([[2, 4], [1, 2], [3, 5]], 2))  # shift = width
@example(([[2, 4, 6, 1], [1, 2, 0, 0]], 4))  # shift = width, rows < width
def test_rotation_closure_rank_matches_rank_of_every_rotation(case):
    rows, shift = case
    width = len(rows[0])
    if width:
        rotations = [
            r[j * shift :] + r[: j * shift] for r in rows for j in range(width // shift)
        ]
        expected = gauss_rank(rotations)
    else:
        expected = 0
    # lists and tuples alike, and neither is modified
    lists = [list(r) for r in rows]
    assert _rotation_closure_rank(lists, shift)[0] == expected
    assert lists == [list(r) for r in rows]
    assert _rotation_closure_rank([tuple(r) for r in rows], shift)[0] == expected


@settings(max_examples=60)
@given(closure_inputs())
@example(([[], [], []], 0))  # width 0: no row generates
@example(([[0, 0, 0, 0]] * 5, 2))  # rank 0
@example(([[0, 0], [1, 2], [2, 4], [0, 1], [7, 7]], 1))  # full rank at a given row
@example(([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], 1))  # rotations of row 0
@example(([[1, 1, 0, 0], [1, 0, 1, 0], [2, 2, 0, 0]], 2))  # row 1 outside, row 2 not
def test_gauss_jordan_closure_names_the_greedy_generators(case):
    # a given row generates exactly when it lies outside the rotation closure
    # of the given rows before it, and the rank is that of every rotation
    rows, shift = [list(r) for r in case[0]], case[1]
    rank, generators = _gauss_jordan_closure(rows, rotation(shift, len(rows[0])))
    closures = [rotation_closure_rank(rows[:i], shift) for i in range(len(rows) + 1)]
    assert generators == [i for i in range(len(rows)) if closures[i + 1] > closures[i]]
    kept = [rows[i] for i in generators]
    assert rank == closures[-1] == rotation_closure_rank(kept, shift)
    assert rows == [list(r) for r in case[0]]


@settings(max_examples=60)
@given(closure_inputs())
@example(([[], [], []], 0))  # width 0: no row generates
@example(([[0, 0, 0, 0]] * 5, 2))  # rank 0
@example(([[0, 0], [1, 2], [2, 4], [0, 1], [7, 7]], 1))  # full rank at a given row
@example(([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], 1))  # rotations of row 0
@example(([[1, 1, 0, 0], [1, 0, 1, 0], [2, 2, 0, 0]], 2))  # row 1 outside, row 2 not
@example(([[1, 0, 2, 0, 3, 0], [0, 1, 0, 0, 0, 0]], 2))  # rows < width
def test_both_closure_kernels_name_the_same_generators(case):
    # the streaming echelon reads each row followed by the rotations of what
    # it adds, as Gauss-Jordan does, so on any shape the two kernels give the
    # same rank and name the same rows, and the rank is that of every rotation
    rows, shift = [list(r) for r in case[0]], case[1]
    rotate = lambda r: r[shift:] + r[:shift]
    basis, generators = _streaming_echelon(rows, len(rows[0]), rotate)
    assert _gauss_jordan_closure(rows, rotation(shift, len(rows[0]))) == (len(basis), generators)
    assert _rotation_closure_rank(rows, shift) == (len(basis), generators)
    assert len(basis) == rotation_closure_rank(rows, shift)
    assert rows == [list(r) for r in case[0]]


class SliceCountingRow(list):
    """A row that counts the slices read from it: each rotation of a given
    row, and each tail the streaming echelon cuts from it, is one."""

    def __init__(self, values):
        super().__init__(values)
        self.slices = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices += 1
        return super().__getitem__(index)


@pytest.mark.parametrize(
    "nrows, width", [(6, 6), (9, 6), (5, 6), (2, 6), (3, 8), (1, 5)]
)
def test_an_identity_rotation_reads_each_row_once(nrows, width, monkeypatch):
    # a shift by the width, as in every closure of f(1), leaves each row as
    # it is: no row is followed by its image, on either kernel
    rng = random.Random(nrows * 10 + width)
    values = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(nrows - nrows // 3)]
    values += [[a + b for a, b in zip(values[0], values[-1])] for _ in range(nrows // 3)]
    rows = [SliceCountingRow(r) for r in values]
    steps, real = [], exact._streaming_echelon

    def recording(rows, width, step=None):
        steps.append(step)
        return real(rows, width, step)

    monkeypatch.setattr(exact, "_streaming_echelon", recording)
    rank, generators = _rotation_closure_rank(rows, width)
    assert steps in ([], [None]) and all(r.slices <= 1 for r in rows)
    assert steps or not any(r.slices for r in rows)
    prefix = [gauss_rank(values[: i + 1]) for i in range(nrows)]
    assert rank == rotation_closure_rank(values, width) == prefix[-1]
    assert generators == [i for i in range(nrows) if prefix[i] > (prefix[i - 1] if i else 0)]
    assert _gauss_jordan_closure(values, None) == (rank, generators)


def _q_block(nrows, ncols):
    """Fraction entries: mostly small or zero, some numerators past 2**64."""
    numerators = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(2**64, 2**66),
        st.integers(-(2**66), -(2**64)),
    )
    entry = st.builds(Fraction, numerators, st.integers(1, 6))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@st.composite
def q_matrices(draw):
    """Rational matrices up to 12 x 12: any shape, tall, wide, or a product.

    A product of an r x t and a t x c matrix, t < min(r, c), has rank at
    most t, so its rank is deficient.
    """
    shape = draw(st.sampled_from(["any", "tall", "wide", "product"]))
    if shape == "tall":
        nrows, ncols = draw(st.integers(6, 12)), draw(st.integers(1, 4))
    elif shape == "wide":
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(6, 12))
    else:
        nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if shape != "product":
        return draw(_q_block(nrows, ncols))
    inner = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
    left, right = draw(_q_block(nrows, inner)), draw(_q_block(inner, ncols))
    columns = list(zip(*right))
    return [[sum(map(operator.mul, row, col)) for col in columns] for row in left]


@settings(max_examples=60, deadline=None)
@given(q_matrices())
# a later row takes a pivot left of an earlier one: the pivots are listed in
# column order, not in the order they were made
@example([[0, 1, 1], [1, 1, 0]])
@example([[0, 0], [0, 0]])  # rank 0
# the ranks read off the store, with no elimination
@example([[3, Fraction(-1, 2), 0, 2**65]])  # a single row
@example([[0], [Fraction(2, 3)], [5]])  # a single column
@example([[0, 0, 0]] * 3)  # all-zero rows
@example([[0, 0, 0], [0, Fraction(7, 2), 1], [0, 0, 0]])  # one nonzero row
def test_rational_matrices_match_gaussian_elimination(rows):
    m = ExactMatrix.from_rows(rows)
    rank = gauss_rank(rows)
    assert m.rank() == rank
    # the greedy left-to-right column rule
    expected: list[int] = []
    for c in range(m.cols):
        if gauss_rank([[r[j] for j in expected + [c]] for r in rows]) > len(expected):
            expected.append(c)
    assert m.column_basis() == expected
    # each basis row of the kernel starts at its pivot, and is primitive
    echelon = _streaming_echelon([r for _, r in m._integer_rows], m.cols)[0]
    assert sorted(echelon) == expected
    for pivot, tail in echelon.items():
        assert len(tail) == m.cols - pivot and tail[0]
        assert math.gcd(*tail) == 1
