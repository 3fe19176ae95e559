import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dynspan import lyness
from dynspan.exact import CycNumber, ExactMatrix, _int_product
from dynspan.lyness import (
    lyness_homomesy_check,
    lyness_map,
    lyness_matrix,
    lyness_numeric_orbit_sum,
    lyness_orbit,
    lyness_orbit_sum_operator,
    lyness_pullback,
)
from oracles import monomial_value

F = Fraction
IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def minus_diagonal(m, value):
    return ExactMatrix.from_rows(
        [[v - (value if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(m)]
    )


class TestExponentMatrix:
    def test_order_five(self):
        m = lyness_matrix()
        powers = [IDENTITY]
        for _ in range(5):
            powers.append(_int_product(powers[-1], m))
        assert powers[5] == IDENTITY
        assert IDENTITY not in powers[1:5]

    def test_unit_eigenvalue_multiplicity(self):
        assert minus_diagonal(lyness_matrix(), 1).rank() == 4

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_primitive_root_multiplicities(self, t):
        assert minus_diagonal(lyness_matrix(), CycNumber.root(5, t)).rank() == 4


class TestMap:
    def test_orbit_of_ones(self):
        assert lyness_orbit(1, 1) == [
            (F(1), F(1)),
            (F(1), F(2)),
            (F(2), F(3)),
            (F(3), F(2)),
            (F(2), F(1)),
        ]
        assert lyness_map(F(2), F(1)) == (F(1), F(1))

    def test_fifth_iterate_is_identity(self):
        rng = random.Random(3)
        count = 0
        while count < 100:
            x = F(rng.randint(-20, 20), rng.randint(1, 10))
            y = F(rng.randint(-20, 20), rng.randint(1, 10))
            try:
                pt = (x, y)
                for _ in range(5):
                    pt = lyness_map(*pt)
            except ValueError:
                continue
            assert pt == (x, y)
            count += 1

    @pytest.mark.parametrize(
        "x,y", [(0, 1), (1, -1), (-1, 2), (2, -3), (F(-1, 2), F(-1, 2))]
    )
    def test_domain_violations(self, x, y):
        with pytest.raises(ValueError, match="domain"):
            lyness_map(x, y)


class TestPullback:
    def test_x_pulls_back_to_y(self):
        assert lyness_pullback((1, 0, 0, 0, 0)) == (0, 1, 0, 0, 0)

    def test_y_plus_one_pulls_back(self):
        assert lyness_pullback((0, 0, 0, 1, 0)) == (-1, 0, 0, 0, 1)

    def test_zero_vector(self):
        assert lyness_pullback((0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0)

    def test_substitution_identity_at_random_points(self):
        rng = random.Random(4)
        checked = 0
        while checked < 50:
            x = F(rng.randint(-15, 15), rng.randint(1, 6))
            y = F(rng.randint(-15, 15), rng.randint(1, 6))
            try:
                tx, ty = lyness_map(x, y)
                for _ in range(20):
                    v = tuple(rng.randint(-3, 3) for _ in range(5))
                    assert monomial_value(v, tx, ty) == monomial_value(
                        lyness_pullback(v), x, y
                    )
            except ValueError:
                continue
            checked += 1


class TestOrbitSums:
    def test_log_statistic_is_zero_mesic(self):
        assert lyness_homomesy_check((-2, 0, 1, 0, 0))

    def test_zero_vector_is_zero_mesic(self):
        assert lyness_homomesy_check((0, 0, 0, 0, 0))

    def test_x_alone_is_not(self):
        assert not lyness_homomesy_check((1, 0, 0, 0, 0))
        w = _int_product(lyness_orbit_sum_operator(), (1, 0, 0, 0, 0))
        assert w == (-1, -1, 1, 1, 1)
        # the orbit sum of e1 is the exponent vector of the classical invariant
        assert _int_product(lyness_matrix(), w) == w
        assert lyness_pullback((-1, -1, 1, 1, 1)) == (-1, -1, 1, 1, 1)

    def test_numeric_sum_cancels_at_ones(self):
        assert abs(lyness_numeric_orbit_sum((-2, 0, 1, 0, 0), (1, 1))) < 1e-12

    def test_numeric_sum_of_x_is_log_12(self):
        total = lyness_numeric_orbit_sum((1, 0, 0, 0, 0), (1, 1))
        assert abs(total - math.log(12)) < 1e-12

    def test_zero_vector_numeric(self):
        assert lyness_numeric_orbit_sum((0, 0, 0, 0, 0), (F(3, 7), F(5, 2))) == 0.0

    def test_zero_mesic_vectors_have_tiny_sums(self):
        rng = random.Random(6)
        count = 0
        while count < 25:
            x = F(rng.randint(-10, 10), rng.randint(1, 6))
            y = F(rng.randint(-10, 10), rng.randint(1, 6))
            try:
                total = lyness_numeric_orbit_sum((-2, 0, 1, 0, 0), (x, y))
            except ValueError:
                continue
            assert abs(total) < 1e-9
            count += 1

    def test_exponent_sums_match_exact_products(self):
        # a zero orbit-sum exponent vector forces the orbit product to +-1
        rng = random.Random(8)
        count = 0
        while count < 20:
            x = F(rng.randint(-10, 10), rng.randint(1, 4))
            y = F(rng.randint(-10, 10), rng.randint(1, 4))
            try:
                orbit = lyness_orbit(x, y)
            except ValueError:
                continue
            product = F(1)
            for px, py in orbit:
                product *= monomial_value((-2, 0, 1, 0, 0), px, py)
            assert abs(product) == 1
            count += 1

    def test_numeric_sum_matches_log_of_exact_orbit_product(self):
        rng = random.Random(9)
        count = 0
        while count < 25:
            x = F(rng.randint(-10, 10), rng.randint(1, 6))
            y = F(rng.randint(-10, 10), rng.randint(1, 6))
            v = tuple(rng.randint(-6, 6) for _ in range(5))
            try:
                orbit = lyness_orbit(x, y)
            except ValueError:
                continue
            product = F(1)
            for px, py in orbit:
                product *= monomial_value(v, px, py)
            exact = math.log(abs(product.numerator)) - math.log(product.denominator)
            total = lyness_numeric_orbit_sum(v, (x, y))
            assert math.isclose(total, exact, abs_tol=1e-9)
            count += 1

    def test_numeric_sum_cost_does_not_grow_with_the_exponents(self):
        # a 10-digit exponent: the exact monomial value would have billions of digits
        seed = (F(3, 7), F(2, 5))
        one = lyness_numeric_orbit_sum((1, 0, 0, 0, 0), seed)
        big = lyness_numeric_orbit_sum((10**9, 0, 0, 0, 0), seed)
        assert math.isclose(big, 10**9 * one, rel_tol=1e-12)

    @pytest.mark.parametrize("exponent", [10**400, 10**308])
    def test_numeric_sum_past_the_float_range_overflows(self, exponent):
        # 10**400 is no float; 10**308 is one, but its term is not
        with pytest.raises(OverflowError):
            lyness_numeric_orbit_sum((exponent, 0, 0, 0, 0), (F(3, 7), F(2, 5)))

    def test_bad_vector_length(self):
        with pytest.raises(ValueError):
            lyness_homomesy_check((1, 2, 3))


def same_outcome(vector, seed):
    """The numeric orbit sum and the Fraction oracle give the same float, bit
    for bit, or raise the same error; returns the error message, or None."""
    try:
        want = oracles.lyness_numeric_orbit_sum(vector, seed)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as info:
            lyness_numeric_orbit_sum(vector, seed)
        assert str(info.value) == str(exc)
        return str(exc)
    got = lyness_numeric_orbit_sum(vector, seed)
    assert got.hex() == want.hex()
    return None


# seeds near the walls of the domain: every factor hits 0 on some orbit
coordinates = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(-2), F(-1, 2), F(1, 2), F(-3, 2), F(2)]),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
)


class TestIntegerOrbitWalk:
    @settings(max_examples=500)
    @given(st.tuples(*[st.integers(-6, 6)] * 5), coordinates, coordinates)
    def test_matches_the_fraction_orbit_sum(self, vector, x, y):
        same_outcome(vector, (x, y))

    @pytest.mark.parametrize(
        "seed,name",
        [((0, 1), "x"), ((1, 0), "y"), ((-1, 1), "x+1"), ((1, -1), "y+1"),
         ((F(-1, 2), F(-1, 2)), "x+y+1")],
    )
    def test_each_domain_message_at_the_seed(self, seed, name):
        assert same_outcome((1, 0, 0, 0, 0), seed) == f"point outside the domain: {name} = 0"

    def test_only_the_seed_can_leave_the_domain(self):
        # the core checks the seed alone: on a grid of small seeds, each of the
        # five factors is the first to vanish on some seed, and always at the
        # seed, never at a later point of the orbit
        messages = set()
        values = sorted({F(p, q) for p in range(-4, 5) for q in (1, 2, 3)})
        for x in values:
            for y in values:
                message = same_outcome((1, 2, 0, -1, 3), (x, y))
                if message is None:
                    lyness_orbit(x, y)  # every point in the domain
                    continue
                messages.add(message)
                with pytest.raises(ValueError, match="domain"):
                    lyness_map(x, y)
        names = ("x", "y", "x+1", "y+1", "x+y+1")
        assert messages == {f"point outside the domain: {n} = 0" for n in names}

    def test_unreduced_integer_seed(self):
        # the core reads pairs not in lowest terms, and negative denominators
        want = oracles.lyness_numeric_orbit_sum((1, -2, 3, 0, 5), (F(3, 7), F(-2, 5)))
        for terms in ((3, 7, -2, 5), (6, 14, -4, 10), (-3, -7, 2, -5)):
            got = lyness._orbit_log_sum((1, -2, 3, 0, 5), *terms)
            assert got.hex() == want.hex()

    def test_orbit_sum_operator_is_built_once(self):
        assert lyness_orbit_sum_operator() is lyness_orbit_sum_operator()
