import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynspan.exact import CycNumber, ExactMatrix, divisors
from dynspan.families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
)
from dynspan.linearize import (
    coboundary_witness,
    dynamical_dimension,
    extend_products,
    flatness_report,
    homomesy_value,
    invariant_basis,
    invariant_matrix,
    presenting_matrix,
    shifted_difference,
    spectrum,
    statistic_report,
    zero_mesic_dimension,
    zero_mesic_original_combos,
    zeta_matrix,
)
from dynspan.system import FiniteSystem, orbits, validate


def as_ints(matrix: ExactMatrix) -> list[list[int]]:
    return [[int(v) for v in row] for row in matrix.entries]


class TestPresentingMatrix:
    def test_two_symbol_k3(self):
        pm = presenting_matrix(multiset_rotation(2, 3))
        assert as_ints(pm.matrix) == [
            [0, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 1],
            [1, 1, 1, 0, 0, 0],
        ]

    def test_two_symbol_k4(self):
        pm = presenting_matrix(multiset_rotation(2, 4))
        assert as_ints(pm.matrix) == [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1, 1, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 1, 1, 1, 0, 0, 0, 1],
            [1, 1, 1, 1, 0, 0, 0, 0],
        ]

    def test_two_symbol_k2(self):
        pm = presenting_matrix(multiset_rotation(2, 2))
        assert as_ints(pm.matrix) == [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]]

    def test_first_block_is_the_stats_grid(self):
        system = multiset_rotation(3, 3)
        pm = presenting_matrix(system)
        k = system.num_stats
        for x in range(system.size):
            assert pm.matrix.entries[x][:k] == system.stats[x]

    def test_block_j_is_block_0_composed_with_t_power(self):
        system = chain_rowmotion(3, 2)
        pm = presenting_matrix(system)
        k, n = system.num_stats, system.period
        image = list(range(system.size))
        for j in range(n):
            for x in range(system.size):
                for i in range(k):
                    assert pm.matrix.entries[x][j * k + i] == system.stats[image[x]][i]
            image = [system.perm[x] for x in image]


class TestDimension:
    def test_two_symbol_k3(self):
        assert dynamical_dimension(multiset_rotation(2, 3)) == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chain_k3(self, n):
        assert dynamical_dimension(chain_rowmotion(n, 3)) == 4

    def test_rotation_3_2(self):
        assert dynamical_dimension(multiset_rotation(3, 2)) == 6


class TestInvariantMatrix:
    def test_two_symbol_k3(self):
        pm = presenting_matrix(multiset_rotation(2, 3))
        assert as_ints(invariant_matrix(pm)) == [
            [1, 1, 1],
            [0, 1, 2],
            [0, 1, 2],
            [1, 1, 1],
        ]

    def test_two_symbol_k4(self):
        pm = presenting_matrix(multiset_rotation(2, 4))
        assert as_ints(invariant_matrix(pm)) == [
            [1, 1, 1, 1],
            [0, 1, 1, 2],
            [0, 0, 2, 2],
            [0, 1, 1, 2],
            [1, 1, 1, 1],
        ]

    def test_two_symbol_k2(self):
        pm = presenting_matrix(multiset_rotation(2, 2))
        assert as_ints(invariant_matrix(pm)) == [[1, 1], [0, 2], [1, 1]]


class TestZetaMatrix:
    def test_exponent_zero_equals_invariant_matrix(self):
        pm = presenting_matrix(multiset_rotation(3, 2))
        zm = zeta_matrix(pm, 0)
        im = invariant_matrix(pm)
        for r in range(zm.rows):
            for c in range(zm.cols):
                assert zm.entries[r][c] == im.entries[r][c]

    def test_two_symbol_k3_difference(self):
        pm = presenting_matrix(multiset_rotation(2, 3))
        zm = zeta_matrix(pm, 1)
        expected = [[-1, -1, -1], [0, -1, 0], [0, 1, 0], [1, 1, 1]]
        for r in range(4):
            for c in range(3):
                assert zm.entries[r][c] == expected[r][c]
        assert zm.rank() == 2

    def test_rotation_3_2_nonunital_rank(self):
        pm = presenting_matrix(multiset_rotation(3, 2))
        assert zeta_matrix(pm, 1).rank() == 2

    @pytest.mark.parametrize(
        "system",
        [multiset_rotation(3, 2), multiset_rotation(4, 2), chain_rowmotion(3, 3)],
        ids=["rot32", "rot42", "chain33"],
    )
    def test_columns_are_eigenfunctions(self, system):
        pm = presenting_matrix(system)
        n = system.period
        for j in range(n):
            zm = zeta_matrix(pm, j)
            d = n // math.gcd(j, n)
            zeta = CycNumber.root(d, j // math.gcd(j, n))
            for c in range(zm.cols):
                f = zm.column(c)
                for x in range(system.size):
                    assert f[system.perm[x]] == zeta * f[x]


class TestShiftedDifference:
    def test_two_symbol_k2(self):
        system = multiset_rotation(2, 2)
        diff = shifted_difference(presenting_matrix(system))
        assert as_ints(diff) == [[-1, -1, 1, 1], [0, 0, 0, 0], [1, 1, -1, -1]]
        assert zero_mesic_dimension(system) == 1

    def test_two_symbol_k3(self):
        assert zero_mesic_dimension(multiset_rotation(2, 3)) == 2

    def test_chain_3_3(self):
        assert zero_mesic_dimension(chain_rowmotion(3, 3)) == 3


class TestSpectrum:
    def test_two_symbol_k5(self):
        for method in ("galois", "cyclotomic"):
            assert spectrum(multiset_rotation(2, 5), method).mults == (3, 3)

    def test_rotation_3_4(self):
        for method in ("galois", "cyclotomic"):
            assert spectrum(multiset_rotation(3, 4), method).mults == (3, 4, 4)

    def test_distinct_4_2(self):
        for method in ("galois", "cyclotomic"):
            assert spectrum(distinct_multiset_rotation(4, 2), method).mults == (
                2,
                1,
                2,
                1,
            )

    def test_chain_3_3(self):
        for method in ("galois", "cyclotomic"):
            assert spectrum(chain_rowmotion(3, 3), method).mults == (1, 1, 1, 1)

    def test_by_divisor(self):
        sp = spectrum(distinct_multiset_rotation(4, 2))
        assert sp.by_divisor == {1: 2, 2: 2, 4: 1}
        assert sp.dimension == 6

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            spectrum(negation_system(), "numeric")


class TestInvariantBasis:
    def test_two_symbol_k2(self):
        basis = invariant_basis(multiset_rotation(2, 2))
        assert basis == [
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(2), Fraction(1)),
        ]

    def test_chain_3_3_only_constants(self):
        basis = invariant_basis(chain_rowmotion(3, 3))
        assert len(basis) == 1
        assert len(set(basis[0])) == 1
        assert basis[0][0] != 0

    def test_negation_has_no_invariants(self):
        assert invariant_basis(negation_system()) == []

    @pytest.mark.parametrize(
        "system",
        [multiset_rotation(3, 3), chain_rowmotion(4, 3), distinct_multiset_rotation(5, 2)],
        ids=["rot33", "chain43", "distinct52"],
    )
    def test_basis_functions_are_invariant(self, system):
        for f in invariant_basis(system):
            assert all(f[system.perm[x]] == f[x] for x in range(system.size))
        assert len(invariant_basis(system)) == spectrum(system).mults[0]


def unit_coeffs(system: FiniteSystem, index: int) -> list[Fraction]:
    coeffs = [Fraction(0)] * (system.period * system.num_stats)
    coeffs[index] = Fraction(1)
    return coeffs


class TestHomomesyValue:
    def test_chain_3_3_second_statistic(self):
        system = chain_rowmotion(3, 3)
        assert homomesy_value(system, unit_coeffs(system, 1)) == 1

    def test_rotation_3_2_complementary_pair(self):
        system = multiset_rotation(3, 2)
        coeffs = [Fraction(0)] * 6
        coeffs[0] = coeffs[1] = Fraction(1)
        assert homomesy_value(system, coeffs) == 2

    def test_rotation_3_2_single_statistic_is_not_homomesic(self):
        system = multiset_rotation(3, 2)
        assert homomesy_value(system, unit_coeffs(system, 0)) is None

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            homomesy_value(negation_system(), [Fraction(1)])


class TestStatisticReport:
    def test_chain_4_2(self):
        report = statistic_report(chain_rowmotion(4, 2))
        assert [v.verdict for v in report.verdicts] == ["c-mesic", "c-mesic"]
        assert [v.homomesy for v in report.verdicts] == [Fraction(1), Fraction(2)]

    def test_rotation_3_2_neither(self):
        report = statistic_report(multiset_rotation(3, 2))
        assert [v.verdict for v in report.verdicts] == ["neither", "neither"]

    def test_identity_map_everything_invariant(self):
        system = FiniteSystem(
            perm=(0, 1, 2),
            period=1,
            stats=((Fraction(5),), (Fraction(1),), (Fraction(7),)),
        )
        report = statistic_report(system)
        assert [v.verdict for v in report.verdicts] == ["invariant"]

    def test_homomesic_minus_mean_is_zero_mesic(self):
        system = chain_rowmotion(3, 3)
        report = statistic_report(system)
        for i, verdict in enumerate(report.verdicts):
            assert verdict.homomesy is not None
            values = [row[i] - verdict.homomesy for row in system.stats]
            for orbit in orbits(system).orbits:
                assert sum(values[x] for x in orbit) == 0


class TestZeroMesicCombos:
    def test_negation(self):
        assert zero_mesic_original_combos(negation_system()) == [(Fraction(1),)]

    def test_rotation_3_2_trivial(self):
        assert zero_mesic_original_combos(multiset_rotation(3, 2)) == []

    def test_chain_3_3_two_dimensional(self):
        system = chain_rowmotion(3, 3)
        combos = zero_mesic_original_combos(system)
        assert len(combos) == 2
        cs = [Fraction(i * 2, 4) for i in (1, 2, 3)]
        for combo in combos:
            assert sum(a * c for a, c in zip(combo, cs)) == 0


class TestCoboundaryWitness:
    def test_negation(self):
        system = negation_system()
        witness = coboundary_witness(system, [Fraction(1), Fraction(-1)])
        assert witness == (Fraction(1, 2), Fraction(-1, 2))

    def test_zero_maps_to_zero(self):
        system = negation_system()
        assert coboundary_witness(system, [0, 0]) == (Fraction(0), Fraction(0))

    def test_rotation_3_2_adjusted_statistic(self):
        system = multiset_rotation(3, 2)
        f = [row[0] + row[1] - 2 for row in system.stats]
        witness = coboundary_witness(system, f)
        for x in range(system.size):
            assert f[x] == witness[x] - witness[system.perm[x]]

    def test_nonzero_orbit_sum_rejected(self):
        system = negation_system()
        with pytest.raises(ValueError, match="0-mesic"):
            coboundary_witness(system, [Fraction(1), Fraction(1)])

    @pytest.mark.parametrize(
        "system",
        [multiset_rotation(3, 3), chain_rowmotion(4, 2), distinct_multiset_rotation(4, 2)],
        ids=["rot33", "chain42", "distinct42"],
    )
    def test_roundtrip_on_random_projections(self, system):
        rng = random.Random(99)
        pm = presenting_matrix(system)
        decomposition = orbits(system)
        for _ in range(25):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(system.period * system.num_stats)
            ]
            values = list(pm.matrix.apply(coeffs))
            for orbit in decomposition.orbits:
                mean = sum((values[x] for x in orbit), Fraction(0)) / len(orbit)
                for x in orbit:
                    values[x] -= mean
            witness = coboundary_witness(system, values)
            assert all(
                values[x] == witness[x] - witness[system.perm[x]]
                for x in range(system.size)
            )


class TestExtendProducts:
    def test_two_symbol_k2_gains_the_count_product(self):
        system = multiset_rotation(2, 2)
        extended = extend_products(system)
        target = (Fraction(0), Fraction(1), Fraction(0))
        # value vector of count(1 in x) * count(1 in Tx) on (00, 01, 11)
        columns = list(zip(*extended.stats))
        assert target in columns
        m1 = invariant_matrix(presenting_matrix(extended))
        augmented = ExactMatrix.from_rows(
            [list(row) + [target[x]] for x, row in enumerate(m1.entries)]
        )
        assert augmented.rank() == m1.rank()

    def test_products_of_invariants_stay_invariant(self):
        system = FiniteSystem(
            perm=(1, 0, 2),
            period=2,
            stats=(
                (Fraction(3), Fraction(2)),
                (Fraction(3), Fraction(2)),
                (Fraction(0), Fraction(5)),
            ),
        )
        extended = extend_products(system)
        report = statistic_report(extended)
        assert all(v.verdict == "invariant" for v in report.verdicts)

    def test_two_symbol_k3_quadratic_combination_is_orbit_constant(self):
        system = multiset_rotation(2, 3)
        total = [sum(row, Fraction(0)) for row in system.stats]
        values = [total[x] * total[system.perm[x]] for x in range(system.size)]
        for orbit in orbits(system).orbits:
            assert len({values[x] for x in orbit}) == 1

    def test_extension_preserves_map_and_dedupes(self):
        system = multiset_rotation(2, 2)
        extended = extend_products(system)
        assert extended.perm == system.perm
        assert extended.period == system.period
        assert validate(extended) == []
        columns = list(zip(*extended.stats))
        assert len(set(columns)) == len(columns)


class TestFlatness:
    def test_rotation_3_4_is_flat(self):
        report = flatness_report(multiset_rotation(3, 4))
        assert (report.min_nonunital, report.max_nonunital) == (4, 4)
        assert report.ratio == 1

    def test_distinct_4_2_ratio_two(self):
        report = flatness_report(distinct_multiset_rotation(4, 2))
        assert (report.min_nonunital, report.max_nonunital) == (1, 2)
        assert report.ratio == 2
        assert report.dim_v == 6
        assert report.dim_v1perp == 4

    def test_two_symbol_k4_single_nonunital_value(self):
        report = flatness_report(multiset_rotation(2, 4))
        assert report.ratio == 1

    def test_no_nonunital_eigenvalues(self):
        system = FiniteSystem(
            perm=(0, 1), period=2, stats=((Fraction(1),), (Fraction(2),))
        )
        report = flatness_report(system)
        assert report.ratio is None
        assert report.min_nonunital is None

    def test_period_one_rejected(self):
        system = FiniteSystem(perm=(0,), period=1, stats=((Fraction(1),),))
        with pytest.raises(ValueError):
            flatness_report(system)


@st.composite
def random_systems(draw):
    size = draw(st.integers(1, 6))
    perm = tuple(draw(st.permutations(range(size))))
    seen = [False] * size
    lcm = 1
    for start in range(size):
        if seen[start]:
            continue
        length, x = 1, perm[start]
        seen[start] = True
        while x != start:
            seen[x] = True
            x = perm[x]
            length += 1
        lcm = math.lcm(lcm, length)
    period = lcm * draw(st.sampled_from([1, 2]))
    k = draw(st.integers(0, 2))
    stats = tuple(
        tuple(
            draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
            for _ in range(k)
        )
        for _ in range(size)
    )
    return FiniteSystem(perm=perm, period=period, stats=stats)


@settings(max_examples=30)
@given(random_systems())
def test_structural_identities_on_random_systems(system):
    assert validate(system) == []
    pm = presenting_matrix(system)
    rank_full = pm.matrix.rank()
    rank_inv = invariant_matrix(pm).rank()
    rank_zero = shifted_difference(pm).rank()
    assert rank_full == rank_inv + rank_zero
    sp_g = spectrum(system, "galois")
    sp_c = spectrum(system, "cyclotomic")
    assert sp_g == sp_c
    assert sp_g.dimension == rank_full
    assert sp_g.mults[0] == rank_inv
    n = system.period
    for j in range(n):
        assert sp_g.mults[j] == sp_g.mults[math.gcd(j, n) % n]


def power_system(system: FiniteSystem, d: int) -> FiniteSystem:
    """(X, T^d) with the statistics g_i o T^r, r < d, and period n/d."""
    tables = [list(range(system.size))]
    for _ in range(system.period):
        tables.append([system.perm[x] for x in tables[-1]])
    stats = tuple(
        tuple(system.stats[tables[r][x]][i] for r in range(d) for i in range(system.num_stats))
        for x in range(system.size)
    )
    return FiniteSystem(perm=tuple(tables[d]), period=system.period // d, stats=stats)


@pytest.mark.parametrize(
    "system",
    [
        multiset_rotation(4, 2),
        multiset_rotation(6, 2),
        chain_rowmotion(3, 3),
        distinct_multiset_rotation(4, 2),
    ],
    ids=["rot42", "rot62", "chain33", "distinct42"],
)
def test_power_invariants_match_partial_spectrum_sums(system):
    # for each d | n, the multiplicities of the eigenvalues killed by d sum
    # to the invariant dimension of the d-th power system
    sp = spectrum(system, "cyclotomic")
    n = system.period
    for d in divisors(n):
        power = power_system(system, d)
        assert validate(power) == []
        inv_dim = invariant_matrix(presenting_matrix(power)).rank()
        killed = sum(sp.mults[j] for j in range(n) if (j * d) % n == 0)
        assert killed == inv_dim


# |X| = 1; k = 0; fixed points with a non-minimal period; rational statistics
@settings(max_examples=40)
@given(random_systems())
@example(FiniteSystem(perm=(0,), period=2, stats=((Fraction(3, 2),),)))
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4))
@example(
    FiniteSystem(
        perm=(1, 0, 2, 3),
        period=4,
        stats=tuple((Fraction(v, 3), Fraction(1, 1 + v)) for v in (1, -2, 5, 0)),
    )
)
def test_orbit_quotient_ranks_match_full_row_ranks(system):
    # both spectrum routes and invariant_basis rank one row per orbit; the
    # full-row matrices are the reference
    pm = presenting_matrix(system)
    n = system.period
    sp_c = spectrum(system, "cyclotomic")
    for j in range(n):
        assert sp_c.mults[j] == zeta_matrix(pm, j).rank()
    sp_g = spectrum(system, "galois")
    for d in divisors(n):
        # f(d) = sum of the galois multiplicities killed by d, and Moebius
        # inversion is invertible, so this pins every quotient rank f(d)
        f_d = sum(sp_g.mults[j] for j in range(n) if (j * d) % n == 0)
        assert f_d == invariant_matrix(presenting_matrix(power_system(system, d))).rank()
    full = invariant_matrix(pm)
    assert invariant_basis(system) == [full.column(c) for c in full.column_basis()]
