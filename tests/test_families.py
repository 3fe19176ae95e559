import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynspan.exact import CycNumber
from dynspan.families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_elements,
    multiset_rotation,
    negation_system,
    nesw_det_closed_form,
    nesw_entries,
    nesw_matrix,
    nesw_recurrence_check,
)
from dynspan.linearize import spectrum, zero_mesic_dimension
from dynspan.system import minimal_period, orbits, validate
from oracles import chain_reflection, perm_det


def image_label(system, label: str) -> str:
    x = system.labels.index(label)
    return system.labels[system.perm[x]]


class TestMultisetRotation:
    def test_3_3_steps(self):
        system = multiset_rotation(3, 3)
        assert image_label(system, "001") == "112"
        assert image_label(system, "112") == "022"

    def test_3_3_state_space(self):
        system = multiset_rotation(3, 3)
        assert system.size == 10
        assert system.labels == (
            "000", "001", "002", "011", "012", "022", "111", "112", "122", "222",
        )

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 11) for k in range(2, 11) if n + k <= 12]
    )
    def test_size_is_binomial(self, n, k):
        assert multiset_rotation(n, k).size == math.comb(n + k - 1, k)

    @pytest.mark.parametrize("n,k", [(1, 3), (3, 1), (0, 2)])
    def test_bounds(self, n, k):
        with pytest.raises(ValueError):
            multiset_rotation(n, k)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_valid_with_minimal_period_n(self, n, k):
        system = multiset_rotation(n, k)
        assert validate(system) == []
        assert minimal_period(system) == n

    def test_statistics_are_sorted(self):
        for system in (multiset_rotation(4, 3), distinct_multiset_rotation(5, 3)):
            for row in system.stats:
                assert list(row) == sorted(row)


class TestChainReflection:
    def test_involution(self):
        n, k = 3, 3
        for x in multiset_elements(n, k):
            for i in range(1, k + 1):
                assert chain_reflection(n, k, i, chain_reflection(n, k, i, x)) == x

    def test_braid_relation(self):
        n, k = 4, 3
        for x in multiset_elements(n, k):
            for i in range(1, k):
                y = x
                for _ in range(3):
                    y = chain_reflection(n, k, i, chain_reflection(n, k, i + 1, y))
                assert y == x

    def test_distant_reflections_commute(self):
        n, k = 3, 3
        for x in multiset_elements(n, k):
            y = x
            for _ in range(2):
                y = chain_reflection(n, k, 1, chain_reflection(n, k, 3, y))
            assert y == x

    def test_result_stays_sorted(self):
        n, k = 5, 4
        for x in multiset_elements(n, k):
            for i in range(1, k + 1):
                assert list(chain_reflection(n, k, i, x)) == sorted(
                    chain_reflection(n, k, i, x)
                )


class TestChainRowmotion:
    def test_3_3_orbits(self):
        system = chain_rowmotion(3, 3)
        assert image_label(system, "000") == "002"
        assert image_label(system, "002") == "022"
        assert image_label(system, "022") == "222"
        assert image_label(system, "222") == "000"
        assert image_label(system, "011") == "112"
        assert image_label(system, "112") == "011"

    def test_order_divides_k_plus_1(self):
        system = chain_rowmotion(4, 4)
        assert validate(system) == []  # includes T^(k+1) = identity

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sweep_equals_reflection_composition(self, n, k):
        system = chain_rowmotion(n, k)
        elements = multiset_elements(n, k)
        index = {x: i for i, x in enumerate(elements)}
        for x in elements:
            y = x
            for i in range(1, k + 1):
                y = chain_reflection(n, k, i, y)
            assert system.perm[index[x]] == index[y]


class TestDistinctRotation:
    def test_4_2_cycles(self):
        system = distinct_multiset_rotation(4, 2)
        assert system.labels == ("01", "02", "03", "12", "13", "23")
        cycle = ["01", "12", "23", "03"]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert image_label(system, a) == b
        assert image_label(system, "02") == "13"
        assert image_label(system, "13") == "02"

    def test_full_set_is_fixed(self):
        system = distinct_multiset_rotation(4, 4)
        assert system.size == 1
        assert system.perm == (0,)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            distinct_multiset_rotation(3, 4)

    def test_4_2_spectrum(self):
        assert spectrum(distinct_multiset_rotation(4, 2)).mults == (2, 1, 2, 1)


class TestNegation:
    def test_dimensions(self):
        system = negation_system()
        assert spectrum(system).dimension == 1
        assert spectrum(system).mults == (0, 1)
        assert zero_mesic_dimension(system) == 1


class TestNeswEntries:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_identities(self, n):
        for j in range(1, n):
            ent = nesw_entries(n, j)
            d = ent.N.order
            s = j // math.gcd(j, n)
            zeta = CycNumber.root(d, s)
            zeta_last = CycNumber.root(d, (s * (n - 1)) % d)
            assert (1 - zeta) * (ent.S - ent.N) == (1 - zeta_last) * n
            assert (1 - zeta) * (ent.E - ent.W) == (zeta_last - 1) * (n - 2)

    def test_n2_has_equal_east_west(self):
        ent = nesw_entries(2, 1)
        assert ent.E == ent.W

    def test_rejects_unit_root(self):
        with pytest.raises(ValueError):
            nesw_entries(4, 0)
        with pytest.raises(ValueError):
            nesw_entries(4, 8)


N_, E_, S_, W_ = Fraction(2), Fraction(3), Fraction(5), Fraction(7)

ZONE_TEMPLATES = {
    3: ["NNN", "WNE", "WSE"],
    4: ["NNNN", "WNNE", "WWEE", "WSSE"],
    5: ["NNNNN", "WNNNE", "WWNEE", "WWSEE", "WSSSE"],
    6: ["NNNNNN", "WNNNNE", "WWNNEE", "WWWEEE", "WWSSEE", "WSSSSE"],
}


class TestNeswMatrix:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_zone_templates(self, k):
        values = {"N": N_, "E": E_, "S": S_, "W": W_}
        m = nesw_matrix(k, N_, E_, S_, W_)
        for i, row in enumerate(ZONE_TEMPLATES[k]):
            for j, letter in enumerate(row):
                assert m.entries[i][j] == values[letter], (k, i, j)

    def test_k2_determinant(self):
        assert nesw_matrix(2, N_, E_, S_, W_).det_cofactor() == N_ * (E_ - W_)
        assert nesw_det_closed_form(2, N_, E_, S_, W_) == N_ * (E_ - W_)

    def test_closed_form_vanishes_when_north_equals_south(self):
        assert nesw_det_closed_form(3, N_, E_, N_, W_) == 0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_closed_form_matches_permutation_expansion(self, k):
        rng = random.Random(k)
        for _ in range(5):
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            m = nesw_matrix(k, *vals)
            assert nesw_det_closed_form(k, *vals) == perm_det(m.entries)

    def test_cyclotomic_values_give_nonzero_determinant(self):
        # nonunital root entries keep the sample matrix nonsingular
        for n in (3, 4, 5):
            for j in range(1, n):
                ent = nesw_entries(n, j)
                for k in (2, 3, 4):
                    det = nesw_det_closed_form(k, *ent)
                    assert det != CycNumber.zero(ent.N.order)

    def test_closed_form_and_recurrence_over_cyclotomic_entries(self):
        # the ring-only forms, over Q(zeta_d), against the cofactor expansion;
        # E = 0 only at n = 2, which the recurrence rejects
        for n in range(2, 8):
            for j in range(1, n):
                ent = nesw_entries(n, j)
                for k in range(2, 6):
                    det = nesw_matrix(k, *ent).det_cofactor()
                    assert nesw_det_closed_form(k, *ent) == det, (n, j, k)
                    if k >= 3 and ent.E:
                        assert nesw_recurrence_check(k, *ent), (n, j, k)


class TestNeswRecurrence:
    def test_k3_example(self):
        assert nesw_recurrence_check(3, Fraction(1), Fraction(2), Fraction(3), Fraction(4))

    def test_k4_random(self):
        rng = random.Random(7)
        for _ in range(5):
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
            while vals[1] == 0:
                vals[1] = Fraction(rng.randint(1, 9))
            assert nesw_recurrence_check(4, *vals)

    def test_k3_zero_north(self):
        assert nesw_recurrence_check(3, Fraction(0), Fraction(2), Fraction(3), Fraction(4))

    def test_zero_east_rejected(self):
        with pytest.raises(ValueError):
            nesw_recurrence_check(3, N_, Fraction(0), S_, W_)


def eigenfunction_sample_matrix(n: int, k: int, j: int):
    """Rows: sample multisets 0^(k-r+1) 1^(r-1); columns: the k weighted sums
    of shifted statistics with conjugate-root coefficients."""
    g = math.gcd(j, n)
    d, s = n // g, j // g
    weights = [CycNumber.root(d, (-s * m) % d) for m in range(n)]
    rows = []
    for r in range(1, k + 1):
        y = (0,) * (k - r + 1) + (1,) * (r - 1)
        row = []
        for c in range(1, k + 1):
            acc = CycNumber.zero(d)
            for m in range(n):
                shifted = sorted((v + m) % n for v in y)
                acc = acc + weights[m] * shifted[c - 1]
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sample_matrix_matches_zones_at_conjugate_root(n, k):
    for j in range(1, n):
        sample = eigenfunction_sample_matrix(n, k, j)
        ent = nesw_entries(n, (n - j) % n)
        expected = nesw_matrix(k, *ent)
        for r in range(k):
            for c in range(k):
                assert sample[r][c] == expected.entries[r][c], (n, k, j, r, c)


@given(st.integers(2, 6), st.integers(2, 5))
def test_rotation_statistics_weakly_increase(n, k):
    system = multiset_rotation(n, k)
    for row in system.stats:
        for a, b in zip(row, row[1:]):
            assert a <= b


def test_distinct_orbit_structure_consistency():
    for n in range(2, 7):
        for k in range(1, n + 1):
            system = distinct_multiset_rotation(n, k)
            assert validate(system) == []
            assert system.size == len(list(combinations(range(n), k)))
            assert n % minimal_period(system) == 0
            assert all(n % len(o) == 0 for o in orbits(system))
