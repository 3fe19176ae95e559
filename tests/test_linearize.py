import dataclasses
import gc
import json
import math
import random
import weakref
from fractions import Fraction
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynspan import exact, linearize
from dynspan.cli import MAX_CELLS, analysis_report, document_to_system, system_to_document
from dynspan.exact import CycNumber, ExactMatrix, divisors
from dynspan.families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
)
from dynspan.linearize import (
    PresentingMatrix,
    _galois_table,
    _orbit_quotient,
    _orbit_selection,
    coboundary_witness,
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
    zeta_matrix,
)
from dynspan.system import FiniteSystem, minimal_period, orbits, validate
from dynspan.verify import _full_row_ranks
from oracles import block_sums as oracle_block_sums
from oracles import coboundary_witness as oracle_coboundary_witness
from oracles import extend_products as oracle_extend_products
from oracles import gauss_rank
from oracles import homomesy_value as oracle_homomesy_value
from oracles import invariant_matrix as oracle_invariant_matrix
from oracles import planted_spectra, reference_report, rotation_closure_rank
from oracles import shifted_difference as oracle_shifted_difference
from oracles import statistic_report as oracle_statistic_report
from oracles import zeta_matrix as oracle_zeta_matrix


def as_ints(matrix: ExactMatrix) -> list[list[int]]:
    return [[int(v) for v in row] for row in matrix.entries]


def as_lists(pm) -> list[list[int]]:
    return [list(row) for row in pm.rows]


def presenting_rows(system: FiniteSystem) -> list[list[Fraction]]:
    """Every row of the presenting matrix, rebuilt from the stats, not the memo."""
    rows = []
    for x in range(system.size):
        row, y = [], x
        for _ in range(system.period):
            row.extend(system.stats[y])
            y = system.perm[y]
        rows.append(row)
    return rows


RATIONAL_STATS = FiniteSystem(
    perm=(1, 2, 0, 4, 3),
    period=6,
    stats=(("1/3", "5/6"), ("2/3", "1/2"), (1, "-1/6"), ("1/3", 2), ("-7/9", 0)),
)


class TestPresentingMatrix:
    def test_two_symbol_k3(self):
        pm = presenting_matrix(multiset_rotation(2, 3))
        assert as_lists(pm) == [
            [0, 0, 0, 1, 1, 1],
            [0, 0, 1, 0, 1, 1],
            [0, 1, 1, 0, 0, 1],
            [1, 1, 1, 0, 0, 0],
        ]

    def test_two_symbol_k4(self):
        pm = presenting_matrix(multiset_rotation(2, 4))
        assert as_lists(pm) == [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 0, 1, 1, 1],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [0, 1, 1, 1, 0, 0, 0, 1],
            [1, 1, 1, 1, 0, 0, 0, 0],
        ]

    def test_two_symbol_k2(self):
        pm = presenting_matrix(multiset_rotation(2, 2))
        assert as_lists(pm) == [[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]]

    def test_first_block_is_the_stats_grid(self):
        # entry i of a row is g_i(x) times L, the lcm of every denominator
        for system in (multiset_rotation(3, 3), RATIONAL_STATS):
            pm = presenting_matrix(system)
            lcm = system.grid[0]
            k = system.num_stats
            for x in range(system.size):
                assert all(type(v) is int for v in pm.rows[x])
                got = tuple(Fraction(v, lcm) for v in pm.rows[x][:k])
                assert got == system.stats[x]

    def test_block_j_is_block_0_composed_with_t_power(self):
        for system in (chain_rowmotion(3, 2), RATIONAL_STATS):
            pm = presenting_matrix(system)
            lcm = system.grid[0]
            k, n = system.num_stats, system.period
            image = list(range(system.size))
            for j in range(n):
                for x in range(system.size):
                    for i in range(k):
                        value = Fraction(pm.rows[x][j * k + i], lcm)
                        assert value == system.stats[image[x]][i]
                image = [system.perm[x] for x in image]


# every public function of a system, and each one of a presenting matrix
# through `presenting_matrix`, rejects an empty X in one way: by `validate`
@pytest.mark.parametrize(
    "call",
    [
        lambda s: coboundary_witness(s, []),
        extend_products,
        flatness_report,
        lambda s: homomesy_value(s, []),
        invariant_basis,
        lambda s: invariant_matrix(presenting_matrix(s)),
        presenting_matrix,
        lambda s: shifted_difference(presenting_matrix(s)),
        lambda s: spectrum(s, "galois"),
        lambda s: spectrum(s, "cyclotomic"),
        statistic_report,
        zero_mesic_dimension,
        lambda s: zeta_matrix(presenting_matrix(s), 0),
    ],
)
@pytest.mark.parametrize("period", [1, 2])
def test_empty_x_is_rejected(call, period):
    with pytest.raises(ValueError, match="X needs at least one element"):
        call(FiniteSystem(perm=(), period=period, stats=()))


# a caller-built empty selection of a valid system is rejected in one way by
# each matrix built from it: by `block_sums`, before any rows are summed
@pytest.mark.parametrize(
    "build",
    [lambda pm: zeta_matrix(pm, 1), shifted_difference, invariant_matrix],
)
def test_empty_selection_is_rejected(build):
    pm = PresentingMatrix(multiset_rotation(2, 2), ())
    with pytest.raises(ValueError, match="needs at least one element"):
        build(pm)
    assert pm._sums == {}


class TestDimension:
    def test_two_symbol_k3(self):
        assert spectrum(multiset_rotation(2, 3)).dimension == 4

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chain_k3(self, n):
        assert spectrum(chain_rowmotion(n, 3)).dimension == 4

    def test_rotation_3_2(self):
        assert spectrum(multiset_rotation(3, 2)).dimension == 6


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
        [
            multiset_rotation(3, 2),
            multiset_rotation(4, 2),
            chain_rowmotion(3, 3),
            # a 3-cycle, a 2-cycle and a fixed point, with rational statistics
            FiniteSystem(
                perm=(1, 2, 0, 4, 3, 5),
                period=6,
                stats=tuple(
                    tuple(Fraction(v) for v in row)
                    for row in (
                        ("1/2", "-2/3"), ("3/4", 0), ("-1/6", 5),
                        ("2/5", "1/3"), (0, "-7/2"), ("1/9", "1/9"),
                    )
                ),
            ),
        ],
        ids=["rot32", "rot42", "chain33", "rational"],
    )
    def test_columns_are_eigenfunctions(self, system):
        pm = presenting_matrix(system)
        n = system.period
        # the exponent-0 matrix is the invariant matrix, entry for entry
        assert zeta_matrix(pm, 0).entries == tuple(
            tuple(CycNumber.from_rational(v, 1) for v in row)
            for row in invariant_matrix(pm).entries
        )
        for j in range(n):
            zm = zeta_matrix(pm, j)
            d = n // math.gcd(j, n)
            zeta = CycNumber.root(d, j // math.gcd(j, n))
            for c in range(zm.cols):
                f = [row[c] for row in zm.entries]
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

    def test_builds_no_fraction_presenting_matrix(self):
        # orbit sums of the integer statistics, not presenting rows
        system = chain_rowmotion(3, 3)
        assert homomesy_value(system, unit_coeffs(system, 1)) == 1
        assert set(system._memo) == {"orbits", "violations"}


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
            for orbit in orbits(system):
                assert sum(values[x] for x in orbit) == 0


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

    def test_fractional_orbit_sum_is_named(self):
        system = FiniteSystem(perm=(0, 2, 1), period=2, stats=((0,), (0,), (0,)))
        with pytest.raises(ValueError) as info:
            coboundary_witness(system, [0, Fraction(1, 2), Fraction(-1, 3)])
        assert str(info.value) == "not 0-mesic: orbit starting at 1 has sum 1/6"

    @pytest.mark.parametrize(
        "system",
        [multiset_rotation(3, 3), chain_rowmotion(4, 2), distinct_multiset_rotation(4, 2)],
        ids=["rot33", "chain42", "distinct42"],
    )
    def test_roundtrip_on_random_projections(self, system):
        rng = random.Random(99)
        rows = presenting_rows(system)
        cycles = orbits(system)
        for _ in range(25):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(system.period * system.num_stats)
            ]
            values = [sum(map(mul, row, coeffs), Fraction(0)) for row in rows]
            for orbit in cycles:
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
        for orbit in orbits(system):
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


@st.composite
def tall_systems(draw):
    """Systems with more T-orbits than m*k columns (m the minimal period), so
    each analysis keeps a selection of orbits.  Orbit lengths divide m, one
    of them is m; the statistics take few values, so rows repeat, and are
    sometimes all zero, which leaves no row independent."""
    m = draw(st.sampled_from([1, 2, 3, 4]))
    k = draw(st.integers(0, 2))
    count = draw(st.integers(m * k + 1, m * k + 4))
    lengths = [m] + [draw(st.sampled_from(divisors(m))) for _ in range(count - 1)]
    labels = draw(st.permutations(range(sum(lengths))))
    perm = [0] * len(labels)
    start = 0
    for length in lengths:
        cycle = labels[start : start + length]
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % length]
        start += length
    values = st.just(0) if draw(st.booleans()) else st.sampled_from(
        [0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]
    )
    stats = tuple(tuple(draw(values) for _ in range(k)) for _ in labels)
    period = m * draw(st.sampled_from([1, 2]))
    return FiniteSystem(perm=tuple(perm), period=period, stats=stats)


@settings(max_examples=30)
@given(random_systems())
def test_structural_identities_on_random_systems(system):
    assert validate(system) == []
    pm = presenting_matrix(system)
    rank_full = gauss_rank(presenting_rows(system))
    rank_inv = invariant_matrix(pm).rank()
    rank_zero = shifted_difference(pm).rank()
    assert rank_full == rank_inv + rank_zero
    # verify-paper's structural block ranks integer rows of all of X
    assert _full_row_ranks(pm) == (rank_full, rank_inv, rank_zero)
    sp_g = spectrum(system, "galois")
    sp_c = spectrum(system, "cyclotomic")
    assert sp_g == sp_c
    assert sp_g.dimension == rank_full
    assert sp_g.mults[0] == rank_inv
    n = system.period
    for j in range(n):
        assert sp_g.mults[j] == sp_g.mults[math.gcd(j, n) % n]


@given(random_systems(), st.data())
def test_coboundary_witness_of_rational_zero_mesic_functions(system, data):
    # values of mixed denominators, less their orbit means: a 0-mesic f
    f = data.draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=system.size,
            max_size=system.size,
        )
    )
    for orbit in orbits(system):
        mean = sum((f[x] for x in orbit), Fraction(0)) / len(orbit)
        for x in orbit:
            f[x] -= mean
    witness = coboundary_witness(system, f)
    assert all(type(v) is Fraction for v in witness)
    assert all(f[x] == witness[x] - witness[system.perm[x]] for x in range(system.size))


@settings(max_examples=200)
@given(random_systems(), st.data())
def test_coboundary_witness_matches_the_former_fraction_witness(system, data):
    # f of integers and Fractions, centred on the orbits whose mean is not 0,
    # and then sometimes moved off 0-mesic at one element: the public witness
    # returns the former Fractions or raises the former error, and the integer
    # core gives the same values over n times the scale of f
    values = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    f = data.draw(st.lists(values, min_size=system.size, max_size=system.size))
    for orbit in orbits(system):
        mean = sum((f[x] for x in orbit), Fraction(0)) / len(orbit)
        for x in orbit:
            f[x] = f[x] - mean if mean else f[x]
    if data.draw(st.booleans()):
        x = data.draw(st.integers(0, system.size - 1))
        f[x] += data.draw(st.fractions(-3, 3, max_denominator=6).filter(bool))
    try:
        want = oracle_coboundary_witness(system.perm, system.period, f)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            coboundary_witness(system, f)
        assert str(info.value) == str(exc)
        return
    got = coboundary_witness(system, f)
    assert got == want and all(type(v) is Fraction for v in got)
    n = system.period
    den = math.lcm(*(Fraction(v).denominator for v in f))
    ints = [int(v * den) for v in f]
    w = linearize._integer_witness(system, ints, den)
    assert tuple(Fraction(v, n * den) for v in w) == want
    assert all(n * ints[x] == w[x] - w[system.perm[x]] for x in range(system.size))


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
    columns = [tuple(row[c] for row in full.entries) for c in full.column_basis()]
    assert invariant_basis(system) == columns


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
def test_memoised_objects_match_direct_computation(system):
    n, k = system.period, system.num_stats
    rows = presenting_rows(system)
    diff = shifted_difference(presenting_matrix(system))
    assert [list(r) for r in diff.entries] == oracle_shifted_difference(rows, n, k)
    assert all(type(v) is Fraction for r in diff.entries for v in r)
    rank = ExactMatrix.from_rows(rows).rank()
    for method in ("galois", "cyclotomic", "both"):
        # a fresh copy, so each method fills its own memo
        assert analysis_report(dataclasses.replace(system), method)["dim_V"] == rank


def relabelled(system: FiniteSystem, seed: int) -> FiniteSystem:
    """The isomorphic system with x renamed sigma[x], sigma a seeded shuffle."""
    sigma = list(range(system.size))
    random.Random(seed).shuffle(sigma)
    perm, stats = [0] * system.size, [()] * system.size
    for x in range(system.size):
        perm[sigma[x]] = sigma[system.perm[x]]
        stats[sigma[x]] = system.stats[x]
    return FiniteSystem(perm=tuple(perm), period=system.period, stats=tuple(stats))


# 30 orbits, n * k = 28, dim V = 27: a tall system.  The top closure reads the
# 30 orbit rows and picks 27 orbits, which every other closure reads, at width
# at most 28; each closure runs fraction-free Gauss-Jordan
RELABELLED_MULTISET_7_4 = relabelled(multiset_rotation(7, 4), 7)


# |X| = 1; k = 0; fixed points with a non-minimal period; rational statistics;
# two ladder systems whose ranks need many rotations of each orbit's row; a
# relabelled ladder system whose closures have more rows than columns
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
@example(multiset_rotation(4, 3))
@example(chain_rowmotion(4, 3))
@example(RELABELLED_MULTISET_7_4)
def test_rotation_closure_ranks_match_full_row_ranks(system):
    # f(d), dim V and rank(M - M') come from one row per T-orbit; the
    # references rank every row of X
    n, k = system.period, system.num_stats
    if system is RELABELLED_MULTISET_7_4:
        assert len(orbits(system)) >= n * k
    rows = presenting_rows(system)
    table = _galois_table(dataclasses.replace(system))
    assert sorted(table) == divisors(n)
    for d in divisors(n):
        assert table[d] == gauss_rank(oracle_block_sums(rows, n, k, d))
    assert spectrum(system).dimension == table[n]
    zero_mesic = gauss_rank(oracle_shifted_difference(rows, n, k))
    assert zero_mesic_dimension(system) == zero_mesic
    report = analysis_report(dataclasses.replace(system), "galois")
    assert report["zero_mesic_dimension"] == zero_mesic


# the period times 2, 3 or 4: every row of M - M' repeats after m blocks, so
# the 0-mesic closure reads only its first m*k entries
@settings(max_examples=40)
@given(random_systems(), st.sampled_from([2, 3, 4]))
@example(FiniteSystem(perm=(0,), period=1, stats=((Fraction(3, 2),),)), 6)
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4), 2)
@example(chain_rowmotion(3, 3), 2)
@example(RATIONAL_STATS, 5)
def test_zero_mesic_closure_runs_at_the_minimal_period(system, factor):
    m, k = minimal_period(system), system.num_stats
    system = dataclasses.replace(system, period=m * factor)
    n = system.period
    widths = []
    real = linearize._rotation_closure_rank

    def recording(rows, shift):
        widths.append({len(row) for row in rows})
        return real(rows, shift)

    linearize._rotation_closure_rank = recording
    try:
        dimension = zero_mesic_dimension(system)
    finally:
        linearize._rotation_closure_rank = real
    # on a tall system the top closure, at width m*k too, names the orbits first
    tall = len(orbits(system)) > m * k
    assert widths == [{m * k}] * (2 if tall else 1)
    assert dimension == gauss_rank(oracle_shifted_difference(presenting_rows(system), n, k))


# |X| = 1; k = 0; fixed points with a non-minimal period; rational statistics;
# multiset(4,3), whose gcd classes have different multiplicities, and chain(4,3)
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
@example(multiset_rotation(4, 3))
@example(chain_rowmotion(4, 3))
def test_cyclotomic_multiplicity_matches_every_exponent_rank(system):
    # the cyclotomic route ranks one exponent per divisor of n; the reference
    # ranks every exponent, on every row of X
    pm = presenting_matrix(system)
    sp_c = spectrum(dataclasses.replace(system), "cyclotomic")
    assert [zeta_matrix(pm, j).rank() for j in range(system.period)] == list(
        sp_c.mults
    )


# one 12-cycle with Phi_3 and Phi_4 killed: the roots of orders 1, 2, 6 and 12
# survive, 1 + 1 + 2 + 4 = 8 of the 12
@settings(max_examples=60)
@given(planted_spectra())
@example(
    (
        list(range(1, 12)) + [0],
        12,
        [(v,) for v in (2, 2, 5, 3, 4, 1, 1, 0, 0, 0, 0, 0)],
        (1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1),
    )
)
def test_planted_spectra(planted):
    # the multiplicities are known by construction, not from another route
    perm, period, stats, mults = planted
    system = FiniteSystem(perm=tuple(perm), period=period, stats=tuple(stats))
    assert spectrum(system, "galois").mults == mults
    assert spectrum(dataclasses.replace(system), "cyclotomic").mults == mults
    assert zero_mesic_dimension(system) == sum(mults) - mults[0]


# a 2-cycle under 5 times its minimal period, and a 3-cycle beside a fixed
# point under 3 times: most roots of the declared period are no eigenvalue
@settings(max_examples=40)
@given(planted_spectra(), st.sampled_from([1, 2, 3, 5]))
@example(([1, 0], 2, [(1,), (0,)], (1, 1)), 5)
@example(([1, 2, 0, 3], 3, [(2, 1), (0, 1), (1, 1), (4, 1)], (2, 1, 1)), 3)
def test_spectrum_under_a_non_minimal_period(planted, multiple):
    # the spectrum planted at period b, read at n = multiple * m: U^m = I, so
    # e^(2 pi i j / n) is an eigenvalue only if j m / n, and so j b / n, is an
    # integer, and it is then the root of exponent j b / n at period b
    perm, b, stats, mults = planted
    system = FiniteSystem(perm=tuple(perm), period=b, stats=tuple(stats))
    n = multiple * minimal_period(system)
    expected = tuple(
        mults[j * b // n] if j * b % n == 0 else 0 for j in range(n)
    )
    for method in ("galois", "cyclotomic"):
        redeclared = dataclasses.replace(system, period=n)
        assert spectrum(redeclared, method).mults == expected, method


def all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)


# non-minimal periods, fixed points, rational statistics and k = 0
@settings(max_examples=60)
@given(random_systems())
@example(FiniteSystem(perm=(0, 2, 1), period=4, stats=(("1/3",), ("-1/2",), ("5/6",))))
@example(FiniteSystem(perm=(0, 1, 2), period=3, stats=((1, "1/2"), (1, "-1/2"), (1, 0))))
@example(FiniteSystem(perm=(1, 0, 2), period=6, stats=((),) * 3))
@example(FiniteSystem(perm=(1, 2, 0, 4, 3), period=12, stats=RATIONAL_STATS.stats))
def test_statistic_report_reads_the_orbit_block_sums(system):
    # the orbit averages come from the d = 1 block sums of the orbit starts,
    # each an integer over n*L; the oracle adds the Fractions along each orbit
    report = statistic_report(system)
    sums = system._memo["quotient"][1]
    assert len(sums) == len(orbits(system))
    assert "stats" not in system._memo
    expected = oracle_statistic_report(system.perm, system.stats)
    got = [(v.invariant, v.homomesy, v.orbit_averages) for v in report.verdicts]
    assert got == expected
    assert report.orbit_sizes == tuple(map(len, orbits(system)))
    for verdict in report.verdicts:
        # one Fraction per distinct average
        assert all_fractions(verdict.orbit_averages)
        distinct = {id(a) for a in verdict.orbit_averages}
        assert len(distinct) == len(set(verdict.orbit_averages))


class CountingPerm(tuple):
    """A permutation that counts its indexed reads; iteration is not counted."""

    reads = 0

    def __getitem__(self, x):
        self.reads += 1
        return super().__getitem__(x)


def test_statistic_report_walks_each_orbit_once():
    # 1000 fixed points under the period 1000: each orbit-start row repeats
    # its one grid row 1000 times, read off one step of T, not 1000
    system = FiniteSystem(perm=range(1000), period=1000, stats=[[x % 7] for x in range(1000)])
    perm = CountingPerm(system.perm)
    object.__setattr__(system, "perm", perm)
    report = statistic_report(system)
    assert [v.verdict for v in report.verdicts] == ["invariant"]
    assert perm.reads <= 2 * system.size


def test_statistic_report_builds_no_presenting_rows(monkeypatch):
    # the orbit averages sum the grid along each orbit, l*k cells, so 1000
    # fixed points under the period 1000 build no row of width n*k; the rows
    # built later keep those sums and fold to them
    built = counting_rows(monkeypatch)
    system = FiniteSystem(perm=range(1000), period=1000, stats=[[x % 7] for x in range(1000)])
    report = statistic_report(system)
    assert built == []
    assert report.verdicts[0].orbit_averages == tuple(Fraction(x % 7) for x in range(1000))
    sums = system._memo["quotient"][1]
    rows = _orbit_quotient(presenting_matrix(system)).rows
    assert built == [1000] and sums == [[1000 * (x % 7)] for x in range(1000)]
    assert system._memo["quotient"][1] is sums == [[sum(row)] for row in rows]


# |X| = 1; k = 0; fixed points with a non-minimal period; rational statistics
# whose columns have different denominators, all over their one lcm L
@settings(max_examples=60)
@given(random_systems())
@example(FiniteSystem(perm=(0,), period=2, stats=((Fraction(3, 2),),)))
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4))
@example(FiniteSystem(perm=(0, 1), period=4, stats=(("1/3", "-5/4"), ("2/3", "1/4"))))
@example(
    FiniteSystem(
        perm=(1, 2, 0, 3),
        period=6,
        stats=(
            ("1/3", "5/6", 2),
            ("5/6", "1/10", 1),
            ("-1/2", "3/5", 7),
            ("1/3", "1/2", 0),
        ),
    )
)
@example(
    FiniteSystem(
        perm=(1, 0, 2, 3),
        period=4,
        stats=tuple((Fraction(v, 3), Fraction(1, 1 + v)) for v in (1, -2, 5, 0)),
    )
)
def test_integer_report_stages_match_fraction_oracles(system):
    # statistic_report, invariant_matrix and shifted_difference sum integer
    # statistics and divide once; the oracles add the Fractions themselves
    n, k = system.period, system.num_stats
    rows = presenting_rows(system)
    report = statistic_report(system)
    expected = oracle_statistic_report(system.perm, system.stats)
    assert len(report.verdicts) == len(expected)
    for verdict, (invariant, homomesy, averages) in zip(report.verdicts, expected):
        assert (verdict.invariant, verdict.homomesy) == (invariant, homomesy)
        assert verdict.orbit_averages == averages
        assert all_fractions(verdict.orbit_averages)
        assert homomesy is None or type(verdict.homomesy) is Fraction
    pm = presenting_matrix(system)
    quotient = _orbit_quotient(pm)
    for matrix in (pm, quotient):
        block_sums = invariant_matrix(matrix)
        assert [list(r) for r in block_sums.entries] == oracle_invariant_matrix(
            [rows[x] for x in matrix.elements], n, k
        )
        assert all(all_fractions(r) for r in block_sums.entries)
    diff = shifted_difference(pm)
    assert [list(r) for r in diff.entries] == oracle_shifted_difference(rows, n, k)
    assert all(all_fractions(r) for r in diff.entries)
    # the orbit quotient's rows are the full matrices' rows at the orbit starts
    starts = [c[0] for c in orbits(system)]
    quotient_diff = shifted_difference(quotient)
    assert quotient_diff.entries == tuple(diff.entries[x] for x in starts)
    assert all(all_fractions(r) for r in quotient_diff.entries)
    for j in range(n):
        full, rows_j = zeta_matrix(pm, j), zeta_matrix(quotient, j).entries
        assert rows_j == tuple(full.entries[x] for x in starts)
        assert all(type(v) is CycNumber for r in rows_j for v in r)


@st.composite
def systems_and_coeffs(draw):
    """A random system and k*n coefficients, drawn or with zero block sums.

    Coefficients of zero block sums (c - c rotated by one block) combine to a
    function averaging 0 on every orbit, a homomesy.
    """
    system = draw(random_systems())
    n, k = system.period, system.num_stats
    c = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=7),
            min_size=n * k,
            max_size=n * k,
        )
    )
    if draw(st.booleans()):
        c = [a - b for a, b in zip(c, c[k:] + c[:k])]
    return system, c


def coeffs_of(system: FiniteSystem, pairs) -> list[Fraction]:
    coeffs = [Fraction(0)] * (system.period * system.num_stats)
    for index, value in pairs:
        coeffs[index] = Fraction(value)
    return coeffs


HOMOMESIC_33 = chain_rowmotion(3, 3)
COMPLEMENTARY_32 = multiset_rotation(3, 2)
MIXED_DENOMINATORS = FiniteSystem(
    perm=(1, 2, 0, 3),
    period=6,
    stats=(
        ("1/3", "5/6", 2),
        ("5/6", "1/10", 1),
        ("-1/2", "3/5", 7),
        ("1/3", "1/2", 0),
    ),
)


@settings(max_examples=60)
@given(systems_and_coeffs())
@example((HOMOMESIC_33, coeffs_of(HOMOMESIC_33, [(1, 1), (5, "-2/3")])))
@example((COMPLEMENTARY_32, coeffs_of(COMPLEMENTARY_32, [(0, 1), (1, 1)])))
@example((COMPLEMENTARY_32, coeffs_of(COMPLEMENTARY_32, [(0, "1/2"), (3, "1/2")])))
@example((MIXED_DENOMINATORS, coeffs_of(MIXED_DENOMINATORS, [(2, "1/3"), (7, 2)])))
@example((FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4), []))
def test_homomesy_value_matches_fraction_oracle(case):
    # the library sums orbit sums of the integer statistics; the oracle sums
    # each presenting row times the coefficients, as Fractions
    system, coeffs = case
    got = homomesy_value(system, coeffs)
    assert got == oracle_homomesy_value(system.perm, system.period, system.stats, coeffs)
    assert got is None or type(got) is Fraction
    assert set(system._memo) <= {"orbits", "violations", "stats"}


# k = 0; period 1; fixed points under a non-minimal period, whose shifts all
# repeat; rational statistics with named columns; an invariant statistic whose
# shift repeats its column beside one whose shift does not
@settings(max_examples=60)
@given(random_systems())
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4))
@example(FiniteSystem(perm=(0, 1, 2), period=1, stats=((1, "1/2"), (2, 0), ("-1/3", 5))))
@example(FiniteSystem(perm=(0, 1), period=4, stats=(("1/3", "-5/4"), ("2/3", "1/4"))))
@example(MIXED_DENOMINATORS)
@example(dataclasses.replace(RATIONAL_STATS, stat_names=("a", "b")))
@example(
    FiniteSystem(perm=(1, 0, 2, 3), period=2, stats=((1, 0), (1, 1), (2, 0), (0, "1/2")))
)
def test_extend_products_matches_fraction_oracle(system):
    # the library reads g_i o T^j through a table of the powers of T; the
    # oracle steps along T from each element
    names = [system.stat_name(i) for i in range(system.num_stats)]
    expected = oracle_extend_products(system.perm, system.period, system.stats, names)
    extended = extend_products(system)
    assert list(extended.stat_names) == [name for name, _ in expected]
    columns = [tuple(row[c] for row in extended.stats) for c in range(len(expected))]
    assert columns == [values for _, values in expected]
    assert all(len(row) == len(expected) for row in extended.stats)
    assert all(all_fractions(row) for row in extended.stats)
    assert (extended.perm, extended.period, extended.labels) == (
        system.perm,
        system.period,
        system.labels,
    )


# k = 0; period 1; fixed points under a non-minimal period; rational
# statistics whose columns have different denominators
@settings(max_examples=40)
@given(random_systems())
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4))
@example(FiniteSystem(perm=(0, 1, 2), period=1, stats=((1, "1/2"), (2, 0), ("-1/3", 5))))
@example(FiniteSystem(perm=(0, 1), period=4, stats=(("1/3", "-5/4"), ("2/3", "1/4"))))
@example(FiniteSystem(perm=(1, 0, 2), period=6, stats=(("1/3", 2), ("-1/6", 0), (5, "7/4"))))
@example(MIXED_DENOMINATORS)
def test_zeta_matrix_matches_cyclotomic_oracle(system):
    # the library sums integer slots of the statistics times L, over L; the
    # oracle adds zeta_d^(-s m) * g_i(T^m x) in the field, term by term
    pm = presenting_matrix(system)
    for matrix in (pm, _orbit_quotient(pm)):
        for j in range(system.period):
            got = zeta_matrix(matrix, j)
            expected = oracle_zeta_matrix(
                system.perm, system.period, system.stats, j, matrix.elements
            )
            assert [list(r) for r in got.entries] == expected
            assert got.rank() == ExactMatrix.from_rows(expected).rank()


@pytest.mark.parametrize(
    "system",
    [multiset_rotation(4, 3), chain_rowmotion(4, 3), RATIONAL_STATS],
    ids=["multiset(4,3)", "chain(4,3)", "rational"],
)
def test_report_path_builds_no_cyclotomic_number(system, monkeypatch):
    built = []
    make, store = exact._cyc, CycNumber._set

    def counting_cyc(*args):
        built.append(args)
        return make(*args)

    def counting_set(self, *args):
        built.append(args)
        store(self, *args)

    monkeypatch.setattr(exact, "_cyc", counting_cyc)
    monkeypatch.setattr(CycNumber, "_set", counting_set)
    spectrum(dataclasses.replace(system), "cyclotomic")
    assert built == []
    zero_mesic_dimension(dataclasses.replace(system))
    assert built == []
    analysis_report(dataclasses.replace(system), "both")
    assert built == []
    # the scalars are built when something reads them
    entries = zeta_matrix(presenting_matrix(system), 1).entries
    assert built and all(type(v) is CycNumber for r in entries for v in r)


def test_cyclotomic_spectrum_of_one_long_cycle_runs_no_elimination(monkeypatch):
    """One T-orbit gives every weighted block sum one row, so each rank over
    Q(zeta_d) is 0 or 1 and is read off the store: the flat zeta-closure,
    some phi(d)^3 integer steps for one row, never runs."""
    widths = []
    kernel = exact._streaming_echelon

    def counting(rows, width, step=None):
        widths.append(width)
        return kernel(rows, width, step)

    monkeypatch.setattr(exact, "_streaming_echelon", counting)
    n = 60
    system = FiniteSystem(
        perm=tuple((i + 1) % n for i in range(n)),
        period=n,
        stats=tuple((i % 7, i * i % 11) for i in range(n)),
    )
    cyclotomic = spectrum(system, "cyclotomic")
    assert widths == []
    assert cyclotomic == spectrum(dataclasses.replace(system), "galois")
    # one orbit of size n spans at most n dimensions; these statistics span all
    assert cyclotomic.mults == (1,) * n


# -- the orbit selection --------------------------------------------------------


# Tall systems whose selection keeps more than one orbit, so that one can be
# dropped: three 2-cycles with orbit rows (2, 2), (1, 0), (2, 2), where the
# first row is fixed by the rotation and the second lies outside its closure
# (the eigenvalue -1); three fixed points with rational rows of rank 2, where
# the rotation is the identity; multiset(7,4), relabelled, which keeps 4 of
# its 30 orbits
SELECTION_MUTANTS = [
    FiniteSystem(perm=(1, 0, 3, 2, 5, 4), period=2, stats=((2,), (2,), (1,), (0,), (2,), (2,))),
    FiniteSystem(perm=(0, 1, 2), period=1, stats=(("1/2", 1), (1, 2), ("1/3", "-1/4"))),
    RELABELLED_MULTISET_7_4,
]


@settings(max_examples=40)
@given(tall_systems())
@example(FiniteSystem(perm=(0, 1, 2), period=1, stats=((0,), (0,), (0,))))
@example(FiniteSystem(perm=(1, 0), period=2, stats=((), ())))
@example(RELABELLED_MULTISET_7_4)
@example(SELECTION_MUTANTS[0])
def test_selected_orbit_rows_generate_every_orbit_row(system):
    # the rows of the kept orbits generate the rotation closure of all orbit
    # rows, each outside the closure of those before it; with no row outside
    # the zero closure the first orbit stands in, its row zero
    quotient = _orbit_quotient(presenting_matrix(system))
    selection = _orbit_selection(quotient)
    m, k = minimal_period(system), system.num_stats
    assert len(quotient.elements) > m * k
    starts = list(quotient.elements)
    kept = [starts.index(x) for x in selection.elements]
    assert kept == sorted(kept) and kept
    assert selection.rows == [quotient.rows[i] for i in kept]
    rows = [list(r) for r in quotient.block_sums(m)]
    rank = rotation_closure_rank(rows, k)
    assert system._memo["selection"][2] == rank == spectrum(system).dimension
    if rank == 0:
        assert kept == [0]
    else:
        ranks = [
            rotation_closure_rank([rows[i] for i in kept[:j]], k)
            for j in range(len(kept) + 1)
        ]
        assert ranks == sorted(set(ranks)) and ranks[-1] == rank
    assert selection.block_sums(1) == [quotient.block_sums(1)[i] for i in kept]
    assert _orbit_selection(quotient)._sums is selection._sums


def counting_ranks(monkeypatch) -> tuple[list, list]:
    """(rows, width) of each rotation closure that `linearize` runs, and the
    row count of each `rank` or `column_basis` query, as they happen."""
    closures, ranks = [], []
    closure = linearize._rotation_closure_rank

    def counting_closure(rows, shift):
        closures.append((len(rows), len(rows[0]) if rows else 0))
        return closure(rows, shift)

    def counting(query):
        def wrapped(matrix):
            ranks.append(matrix.rows)
            return query(matrix)

        return wrapped

    monkeypatch.setattr(linearize, "_rotation_closure_rank", counting_closure)
    for name in ("rank", "column_basis"):
        monkeypatch.setattr(ExactMatrix, name, counting(getattr(ExactMatrix, name)))
    return closures, ranks


def test_no_rank_but_dim_v_reads_more_rows_than_the_span_needs(monkeypatch):
    """On chain(8,6) 246 orbit rows of width 42 span 7 dimensions, and the
    rotations of one of them span all 7.  Only the top closure of the galois
    route, dim V, reads every row, and picks that one orbit, which every
    other rank of a report reads.  Counted, not timed."""
    closures, ranks = counting_ranks(monkeypatch)
    system = relabelled(chain_rowmotion(8, 6), 4)
    report = analysis_report(system, "both")
    n, k = system.period, system.num_stats
    assert report["dim_V"] == 7 and len(orbits(system)) == 246
    assert [c for c in closures if c[0] > 1] == [(246, n * k)]
    assert len(closures) == len(divisors(n)) + 1
    assert ranks and max(ranks) == 1


def test_a_system_that_is_not_tall_ranks_only_the_orbits_its_top_closure_names(monkeypatch):
    """multiset(7,3) has 12 orbits against 21 columns, and the rotations of
    3 of their rows span all 20 dimensions of V.  Once the galois spectrum
    has run, which reads all 12 rows for dim V, every later rank of a report
    reads only those 3: the galois closures for e < n, the weighted block
    sums of the cyclotomic route, the 0-mesic closure and the column choice
    of the invariant basis.  Counted, not timed."""
    expected = analysis_report(relabelled(multiset_rotation(7, 3), 3), "cyclotomic")
    closures, ranks = counting_ranks(monkeypatch)
    system = relabelled(multiset_rotation(7, 3), 3)
    n, k = system.period, system.num_stats
    assert len(orbits(system)) == 12 < n * k
    assert spectrum(system, "galois").dimension == 20
    assert closures[0] == (12, n * k) and len(system._memo["selection"][0]) == 3
    assert analysis_report(system, "both") == expected
    assert {rows for rows, _ in closures[1:]} == {3} and len(closures) == len(divisors(n)) + 1
    assert ranks and set(ranks) == {3}


def test_a_cyclotomic_report_ranks_only_the_orbits_its_top_closure_names(monkeypatch):
    """The report runs its flatness payload, and so the galois top closure,
    before the cyclotomic spectrum: on multiset(7,3) every zeta_matrix rank,
    the 0-mesic closure and the column choice read the 3 named orbits, not
    all 12.  Counted, not timed."""
    expected = analysis_report(relabelled(multiset_rotation(7, 3), 3), "galois")
    closures, ranks = counting_ranks(monkeypatch)
    system = relabelled(multiset_rotation(7, 3), 3)
    n, k = system.period, system.num_stats
    assert analysis_report(system, "cyclotomic") == expected
    assert closures[0] == (12, n * k) and len(system._memo["selection"][0]) == 3
    assert {rows for rows, _ in closures[1:]} == {3} and len(closures) == len(divisors(n)) + 1
    assert ranks and set(ranks) == {3}


def test_a_cyclotomic_spectrum_runs_no_rotation_closure(monkeypatch):
    # the cyclotomic route never triggers the galois top closure: on a
    # system that is not tall it reads every orbit row, as no selection exists
    expected = spectrum(multiset_rotation(7, 3), "galois")
    closures, ranks = counting_ranks(monkeypatch)
    system = relabelled(multiset_rotation(7, 3), 3)
    assert spectrum(system, "cyclotomic") == expected
    assert closures == [] and "selection" not in system._memo
    assert ranks and set(ranks) == {12}


@pytest.mark.parametrize("system", SELECTION_MUTANTS, ids=["2-cycles", "fixed-points", "multiset(7,4)"])
def test_a_selection_that_loses_an_orbit_fails_the_report(system):
    # the galois top closure still reads every orbit row, and each kept row
    # lies outside the closure of those before it, so a selection that drops
    # its last orbit makes the routes disagree, and each route's report
    # differs from the paper's definitions
    doc = system_to_document(system)
    assert len(orbits(system)) > system.period * system.num_stats
    expected = json.dumps(reference_report(doc))

    def mutant() -> FiniteSystem:
        mutated = document_to_system(doc)
        _orbit_selection(_orbit_quotient(presenting_matrix(mutated)))
        starts, _, rank = mutated._memo["selection"]
        assert len(starts) > 1
        mutated._memo["selection"] = (starts[:-1], {}, rank)
        return mutated

    with pytest.raises(RuntimeError, match="spectrum methods disagree"):
        analysis_report(mutant(), "both")
    for method in ("galois", "cyclotomic"):
        assert json.dumps(analysis_report(mutant(), method)) != expected, method
    assert json.dumps(analysis_report(document_to_system(doc), "both")) == expected


# -- the split of the galois closures along x^e - 1 = (x^(e/p) - 1) * Psi ------


def rotate(row, shift):
    return row[shift:] + row[:shift]


@st.composite
def split_inputs(draw):
    """(rows, e, k): rows of width e*k, e with several prime factors, drawn
    from a seed.  Each row repeats a block at a divisor of e, and with
    `killed` every row r becomes r - (r rotated by j blocks), which drops the
    components where x^j = 1, so a tall input, whose rows are at least 3/4
    of the width (the Gauss-Jordan side), still closes below full rank."""
    e = draw(st.sampled_from([4, 6, 8, 9, 10, 12, 16, 18, 30]))
    tall = draw(st.booleans())
    # the oracle ranks every rotation of every row: tall inputs stay narrow
    k = draw(st.integers(1, 1 if tall and e > 18 else 2))
    width = e * k
    count = draw(st.integers(-(-3 * width // 4), width + 2) if tall else st.integers(1, 4))
    killed = draw(st.sampled_from([None] + divisors(e)[:-1]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(count):
        d = rng.choice(divisors(e))
        row = [rng.randint(-3, 3) for _ in range(d * k)] * (e // d)
        if killed is not None:
            row = [a - b for a, b in zip(row, rotate(row, killed * k))]
        rows.append(row)
    rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))]
    return rows, e, k


@settings(max_examples=40)
@given(split_inputs())
@example(([[1, 0, 0, 0]], 4, 1))  # the rotations of one row span all
@example(([[1, 1, 1, 1], [1, -1, 1, -1], [2, 0, 2, 0]], 4, 1))  # f(1), f(2), then nothing
@example(([[1, 2, 1, 2, 1, 2]] * 5, 6, 1))  # tall, every row 2-periodic
@example(([[0] * 18] * 14, 9, 2))  # tall and zero
def test_the_split_names_the_generators_of_the_whole_closure(case):
    # the component closures mod x^q - 1 and mod Psi, chained down to f(1),
    # give the rank of the closure at e and at each divisor on the chain, and
    # their generators together are those the whole closure names
    rows, e, k = case
    f, generators = linearize._split_closure(rows, e, k)
    assert (f[e], generators) == exact._rotation_closure_rank(rows, k)
    assert f[e] == rotation_closure_rank(rows, k)
    for d in f:
        sums = [[int(v) for v in row] for row in oracle_block_sums(rows, e, k, d)]
        assert f[d] == exact._rotation_closure_rank(sums, k)[0]
    assert 1 in f and all(e % d == 0 for d in f)


def split_and_whole(doc) -> tuple[FiniteSystem, FiniteSystem]:
    """The system of `doc` analysed by the galois route twice: through the
    split, which must be the route its shape takes, and with the split off."""
    system, whole = document_to_system(doc), document_to_system(doc)
    m, k = minimal_period(system), system.num_stats
    assert linearize._splits(m, k, len(orbits(system)))
    with mock.patch.object(linearize, "_split_closure", wraps=linearize._split_closure) as spy:
        spectrum(system, "galois")
    # the top closure walks the chain down from m, one call per step
    assert spy.call_args_list[0].args[1:] == (m, k)
    with mock.patch.object(linearize, "_splits", return_value=False):
        spectrum(whole, "galois")
    return system, whole


def assert_same_selection(system: FiniteSystem, whole: FiniteSystem) -> None:
    assert _galois_table(system) == _galois_table(whole)
    assert system._memo["selection"][0] == whole._memo["selection"][0]
    assert system._memo["selection"][2] == whole._memo["selection"][2]


# periods with several prime factors, each system routed through the split
@settings(max_examples=40)
@given(planted_spectra(periods=(12, 16, 18, 20, 24, 30)))
@example(
    (
        list(range(1, 18)) + [0],
        18,
        [(v, 2 * v) for v in range(18)],
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    )
)
def test_planted_spectra_through_the_split(planted):
    perm, period, stats, mults = planted
    doc = system_to_document(FiniteSystem(perm=tuple(perm), period=period, stats=tuple(stats)))
    system = document_to_system(doc)
    assume(linearize._splits(minimal_period(system), system.num_stats, len(orbits(system))))
    system, whole = split_and_whole(doc)
    assert spectrum(system, "galois").mults == mults
    assert_same_selection(system, whole)


# a zero-sum 16-cycle and a fixed point beside it: the fixed point's row is
# constant, so it adds to the closure mod x - 1 alone, f(1), and the selection
# must keep it for the cyclotomic rank at d = 1 and the invariant basis
INVARIANT_ONLY = FiniteSystem(
    perm=tuple((i + 1) % 16 for i in range(16)) + (16,),
    period=16,
    stats=tuple((v,) for v in (3, -1, 4, -1, -5, 9, -2, 6, -5, 3, -5, 8, -9, 7, -9, -3, 5)),
)


def test_an_orbit_that_adds_only_to_the_invariant_part_is_selected():
    # a selection without the fixed point would give the cyclotomic route
    # mult(1) = 0 and the invariant basis no vector
    doc = system_to_document(INVARIANT_ONLY)
    assert_report_matches_reference(doc)
    system, whole = split_and_whole(doc)
    assert system._memo["selection"][0] == (0, 16)
    assert_same_selection(system, whole)


# one 300-cycle with k = 1, two 250-cycles with k = 2 and three 150-cycles
# with k = 3: each galois closure about as wide as its rank
@pytest.mark.slow
@pytest.mark.parametrize("length, count, k", [(300, 1, 1), (250, 2, 2), (150, 3, 3)])
def test_galois_spectrum_of_long_orbits(length, count, k):
    def fresh() -> FiniteSystem:
        rng = random.Random(length)
        perm = tuple(i // length * length + (i + 1) % length for i in range(length * count))
        stats = tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in perm)
        return FiniteSystem(perm=perm, period=length, stats=stats)

    assert linearize._splits(length, k, count)
    galois = spectrum(fresh(), "galois")
    assert galois == spectrum(fresh(), "cyclotomic")
    assert galois.dimension == length * count


def counting_rows(monkeypatch) -> list[int]:
    """The number of elements of each `_walk_orbits` call that builds rows,
    as it happens."""
    built, walk = [], linearize._walk_orbits

    def counting(system, elements, rows):
        if rows:
            built.append(len(elements))
        return walk(system, elements, rows)

    monkeypatch.setattr(linearize, "_walk_orbits", counting)
    return built


def counting_block_sums(monkeypatch) -> list[tuple[tuple[int, ...], int]]:
    """(elements, d) of each block sum that a `PresentingMatrix` builds, as it
    happens: a sum read from `_sums` is not built again."""
    built, block_sums = [], PresentingMatrix.block_sums

    def counting(pm, d):
        if d not in pm._sums:
            built.append((tuple(pm.elements), d))
        return block_sums(pm, d)

    monkeypatch.setattr(PresentingMatrix, "block_sums", counting)
    return built


class TestMemo:
    def test_a_report_builds_no_full_presenting_matrix(self, monkeypatch):
        # every stage reads the integer rows at the orbit starts, built once;
        # the rows of the selected orbits are those rows, not built again.
        # multiset(4,3) has 5 orbits and width n*k = 12, and keeps 4 of them;
        # multiset(7,4) is tall, 30 orbits against 28 columns.  The report of
        # either keeps the selection that its top closure names
        built = counting_rows(monkeypatch)
        for n, k, tall in ((4, 3, False), (7, 4, True)):
            built.clear()
            system = multiset_rotation(n, k)
            analysis_report(system, "both")
            keys = {"orbits", "quotient", "galois", "violations", "selection"}
            assert set(system._memo) == keys
            assert (len(orbits(system)) > n * k) == tall
            assert built == [len(orbits(system))]
            assert len(orbits(system)) < system.size
            rows = system._memo["quotient"][system.period]
            selection = _orbit_selection(_orbit_quotient(presenting_matrix(system)))
            starts, sums, dim_v = system._memo["selection"]
            assert selection.elements == starts and selection._sums is sums
            assert len(starts) < len(orbits(system))
            index = [c[0] for c in orbits(system)]
            assert all(a is rows[index.index(x)] for a, x in zip(sums[n], starts))
            full_rank = gauss_rank(presenting_rows(system))
            assert dim_v == full_rank
            assert full_rank == len(invariant_basis(system)) + zero_mesic_dimension(system)
            assert system._memo["quotient"][system.period] is rows
            assert built == [len(orbits(system))]

    def test_a_selection_of_every_orbit_shares_the_quotient_sums(self):
        # two fixed points whose rows (1, 0) and (0, 1) are both needed: the
        # top closure keeps every orbit, and their sums are the quotient's own
        system = FiniteSystem(perm=(0, 1), period=1, stats=[[1, 0], [0, 1]])
        assert spectrum(system).dimension == 2
        selection = _orbit_selection(_orbit_quotient(presenting_matrix(system)))
        assert selection.elements == (0, 1)
        assert selection._sums is system._memo["selection"][1] is system._memo["quotient"]

    def test_a_report_builds_each_block_sum_once(self, monkeypatch):
        # on a tall system every orbit row is read for dim V, the top closure
        # of the galois route, whose block sum for d = m = n is the rows, and
        # for the values of the invariant basis (d = 1, read off the same
        # walk of each orbit as the rows, so built with them).  The other
        # galois closures, the weighted block sums of the cyclotomic route and
        # the column choice of the invariant basis read the selected orbits,
        # each of their block sums built once; their rows are preset
        built = counting_block_sums(monkeypatch)
        system = relabelled(multiset_rotation(8, 5), 10)
        analysis_report(system, "both")
        n = system.period
        assert minimal_period(system) == n
        starts = tuple(c[0] for c in orbits(system))
        kept = system._memo["selection"][0]
        assert (len(starts), len(kept)) == (99, 5)
        assert [d for e, d in built if e == starts] == [n]
        assert 1 in system._memo["quotient"]
        assert sorted(d for e, d in built if e == kept) == divisors(n)[:-1]
        assert len(built) == len(set(built)) == len(divisors(n))
        assert len(system._memo["quotient"][n]) == len(orbits(system))

    @pytest.mark.parametrize("spectrum_first", [True, False])
    def test_only_the_orbit_starts_are_memoised(self, spectrum_first):
        # (1, 3) has one element per orbit, as the orbit starts (0, 2) have,
        # and its rows and block sums are its own
        system = FiniteSystem(perm=(1, 0, 3, 2), period=2, stats=[[1], [2], [3], [4]])
        if spectrum_first:
            spectrum(system)
        selection = PresentingMatrix(system, (1, 3))
        assert selection.rows == [(2, 1), (4, 3)]
        assert selection.block_sums(1) == [[3], [7]]
        memo = system._memo.get("quotient", {})
        assert memo.get(2, [(1, 2), (3, 4)]) == [(1, 2), (3, 4)]
        assert selection._sums is not memo
        quotient = _orbit_quotient(presenting_matrix(system))
        assert quotient.rows == [(1, 2), (3, 4)]
        assert system._memo["quotient"][2] is quotient.rows
        assert quotient.block_sums(1) is system._memo["quotient"][1]

    def test_repeat_calls_share_the_orbits(self):
        system = multiset_rotation(3, 2)
        assert orbits(system) is orbits(system)

    def test_equal_systems_do_not_share_a_memo(self):
        first, second = multiset_rotation(3, 2), multiset_rotation(3, 2)
        assert first == second and first is not second
        rows = _orbit_quotient(presenting_matrix(first)).rows
        spectrum(first)
        assert second._memo == {}
        second_rows = _orbit_quotient(presenting_matrix(second)).rows
        assert second_rows is not rows
        assert second_rows == rows

    def test_equality_hash_and_repr_ignore_the_memo(self):
        analysed, fresh = multiset_rotation(3, 2), multiset_rotation(3, 2)
        analysis_report(analysed, "both")
        assert analysed._memo and not fresh._memo
        assert analysed == fresh
        assert hash(analysed) == hash(fresh)
        assert repr(analysed) == repr(fresh)
        assert "_memo" not in repr(analysed)

    def test_replace_starts_with_an_empty_memo(self):
        system = multiset_rotation(3, 2)
        analysis_report(system, "both")
        assert system.stats and "stats" in system._memo
        assert dataclasses.replace(system)._memo == {}
        assert dataclasses.replace(system, period=6)._memo == {}
        assert dataclasses.replace(system) == system
        # stats, when given, replace the grid
        halves = [[v / 2 for v in row] for row in system.stats]
        halved = dataclasses.replace(system, stats=halves)
        assert halved.grid == (2, system.grid[1]) and halved.perm == system.perm

    def test_repeat_calls_share_the_integer_statistics(self):
        # the grid is the one store: the stages read it and build no view
        stats = [[1, "1/2"], [3, "1/3"], [0, 0]]
        system = FiniteSystem(perm=(1, 0, 2), period=2, stats=stats)
        grid = system.grid
        assert grid == (6, ((6, 3), (18, 2), (0, 0)))
        report = statistic_report(system)
        assert statistic_report(system) == report
        shifted_difference(presenting_matrix(system))
        spectrum(system)
        assert system.grid is grid
        assert "stats" not in system._memo

    def test_mixed_stats_are_stored_as_fractions(self):
        system = FiniteSystem(perm=(0,), period=1, stats=[[1, "1/2"]])
        assert system.stats == ((Fraction(1), Fraction(1, 2)),)
        assert all(type(v) is Fraction for v in system.stats[0])

    def test_analysed_system_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            system = multiset_rotation(3, 2)
            analysis_report(system, "both")
            assert system.stats and "quotient" in system._memo
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()


# -- the whole report against the paper's definitions -------------------------


def assert_report_matches_reference(doc):
    expected = json.dumps(reference_report(doc))
    for method in ("galois", "cyclotomic", "both"):
        got = json.dumps(analysis_report(document_to_system(doc), method))
        assert got == expected, method


def planted_document(planted):
    perm, period, stats, mults = planted
    doc = {
        "period": period,
        "perm": list(perm),
        "stats": [[str(Fraction(v)) for v in row] for row in stats],
    }
    # the planted spectrum also checks the oracle
    assert [e["multiplicity"] for e in reference_report(doc)["spectrum"]] == list(mults)
    return doc


# k = 0 (V = 0); period 1; fixed points; non-minimal periods, where most roots
# of the declared period are no eigenvalue; columns whose denominators differ
# by large factors, so L is far from each column's own lcm.  Tall systems,
# which keep a selection of orbits: all-zero statistics, where no orbit row is
# independent, k = 0 with one orbit or two, and rows that repeat
@settings(max_examples=60)
@given(st.one_of(random_systems(), tall_systems()))
@example(FiniteSystem(perm=(1, 2, 0, 3), period=3, stats=((),) * 4))
@example(FiniteSystem(perm=(1, 0), period=2, stats=((), ())))
@example(FiniteSystem(perm=(1, 0), period=2, stats=((0, 0), (0, 0))))
@example(FiniteSystem(perm=(1, 0, 2, 3), period=2, stats=((0,), (0,), (0,), (0,))))
@example(SELECTION_MUTANTS[0])
@example(FiniteSystem(perm=(0, 1, 2), period=1, stats=((1, "1/2"), (2, 0), ("-1/3", 5))))
@example(FiniteSystem(perm=(0, 1, 2), period=4, stats=((1,), ("1/2",), (-3,))))
@example(FiniteSystem(perm=(1, 0), period=12, stats=((1, "1/5"), (0, 2))))
@example(FiniteSystem(perm=(1, 2, 0, 3), period=12, stats=((2, 1), (0, 1), (1, 1), (4, 1))))
@example(FiniteSystem(perm=(1, 0, 2), period=6, stats=(("1/3", 2), ("-1/6", 0), (5, "7/4"))))
@example(
    FiniteSystem(
        perm=(1, 2, 0, 4, 3),
        period=6,
        stats=(("1/999983", 1, "1/2"), (0, "7/4", 1), ("5/999983", 0, 0),
               (2, "1/13", "-1/2"), ("-1/999983", 3, 0)),
    )
)
@example(MIXED_DENOMINATORS)
@example(RATIONAL_STATS)
def test_report_matches_reference_on_random_systems(system):
    assert_report_matches_reference(system_to_document(system))


@settings(max_examples=20)
@given(planted_spectra(periods=(1, 2, 3, 4, 6)))
def test_report_matches_reference_on_planted_spectra(planted):
    assert_report_matches_reference(planted_document(planted))


@pytest.mark.slow
@settings(max_examples=60)
@given(planted_spectra())
def test_report_matches_reference_on_larger_planted_spectra(planted):
    assert_report_matches_reference(planted_document(planted))


@pytest.mark.slow
@pytest.mark.parametrize(
    "system",
    [multiset_rotation(4, 3), chain_rowmotion(4, 3), distinct_multiset_rotation(6, 3)],
    ids=["multiset(4,3)", "chain(4,3)", "distinct(6,3)"],
)
def test_report_matches_reference_on_builtins(system):
    assert_report_matches_reference(system_to_document(system))


# -- the paper's closed forms at the size budget --------------------------------


def closed_form(family: str, n: int, k: int) -> tuple[int, ...]:
    """The paper's spectrum: multiset(n, k), n >= 3, has m_1 = floor(k/2) + 1
    and every other multiplicity k; chain(n, k) has every multiplicity 1 over
    its period k + 1."""
    if family == "multiset":
        return (k // 2 + 1,) + (k,) * (n - 1)
    return (1,) * (k + 1)


def assert_closed_form(system: FiniteSystem, want: tuple[int, ...]) -> None:
    # the cyclotomic route runs first, on a fresh system: on a tall one
    # `_orbit_selection` runs the top closure itself to name the orbits
    assert spectrum(system, "cyclotomic").mults == want
    assert spectrum(system, "galois").mults == want
    basis = invariant_basis(system)
    assert len(basis) == want[0]
    for f in basis:
        assert tuple(map(f.__getitem__, system.perm)) == f
    assert zero_mesic_dimension(system) == sum(want) - want[0]


@pytest.mark.slow
@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("family", ["multiset", "chain"])
def test_closed_forms_of_every_family_within_the_budget(family, k):
    # every n >= 3 with |X| * n * k <= MAX_CELLS, |X| = C(n + k - 1, k)
    build = multiset_rotation if family == "multiset" else chain_rowmotion
    n = 3
    while math.comb(n + k - 1, k) * n * k <= MAX_CELLS:
        assert_closed_form(build(n, k), closed_form(family, n, k))
        n += 1


@pytest.mark.slow
@pytest.mark.parametrize(
    "family,n,k,seed", [("multiset", 9, 8, 1), ("multiset", 12, 6, 2), ("chain", 8, 6, 3)]
)
def test_closed_forms_of_relabelled_large_families(family, n, k, seed):
    # the orbit selection depends on the order of the orbits
    build = multiset_rotation if family == "multiset" else chain_rowmotion
    assert_closed_form(relabelled(build(n, k), seed), closed_form(family, n, k))
