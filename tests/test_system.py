import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynspan.families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
)
from dynspan.system import FiniteSystem, minimal_period, orbits, validate


def test_builtins_validate():
    for system in (
        multiset_rotation(3, 3),
        multiset_rotation(2, 4),
        chain_rowmotion(3, 3),
        chain_rowmotion(4, 2),
        distinct_multiset_rotation(4, 2),
        negation_system(),
    ):
        assert validate(system) == []


def test_wrong_period_is_reported():
    good = multiset_rotation(3, 3)
    bad = FiniteSystem(perm=good.perm, period=2, stats=good.stats)
    problems = validate(bad)
    assert any("identity" in p for p in problems)


def test_huge_period_is_checked_without_iterating_it():
    stats = ((Fraction(1),), (Fraction(2),), (Fraction(3),))
    system = FiniteSystem(perm=(1, 0, 2), period=10**18, stats=stats)
    assert validate(system) == []
    bad = FiniteSystem(perm=(1, 0, 2), period=10**18 + 1, stats=stats)
    assert validate(bad) == [f"T^{10**18 + 1} != identity"]


def test_empty_x_is_reported():
    assert validate(FiniteSystem(perm=(), period=1, stats=())) == [
        "X needs at least one element"
    ]


def test_non_bijection_is_reported():
    bad = FiniteSystem(perm=(0, 0), period=1, stats=((Fraction(1),), (Fraction(2),)))
    assert any("bijection" in p for p in validate(bad))


def test_bad_stats_shape_is_reported():
    bad = FiniteSystem(perm=(0, 1), period=1, stats=((Fraction(1),),))
    assert any("stats" in p for p in validate(bad))
    ragged = FiniteSystem(
        perm=(0, 1), period=1, stats=((Fraction(1),), (Fraction(1), Fraction(2)))
    )
    assert any("row 1" in p for p in validate(ragged))


def test_all_violations_are_collected():
    bad = FiniteSystem(perm=(0, 0), period=0, stats=((Fraction(1),),))
    problems = validate(bad)
    assert len(problems) >= 3


def test_violations_are_memoised_and_each_call_gets_a_fresh_list():
    bad = FiniteSystem(perm=(0, 0), period=0, stats=((Fraction(1),),))
    first = validate(bad)
    assert first and bad._memo["violations"] == tuple(first)
    second = validate(bad)
    assert second == first and second is not first
    second.append("changed by the caller")
    first.clear()
    assert validate(bad) == list(bad._memo["violations"]) and validate(bad)
    assert "changed by the caller" not in validate(bad)
    fresh = dataclasses.replace(bad)
    assert fresh._memo == {}
    assert validate(fresh) == validate(bad)


class TestOrbits:
    def test_two_symbol_k4_has_fixed_point(self):
        system = multiset_rotation(2, 4)
        cycles = orbits(system)
        assert sorted(len(o) for o in cycles) == [1, 2, 2]
        fixed = [o for o in cycles if len(o) == 1]
        assert system.labels[fixed[0][0]] == "0011"

    def test_chain_sweep_four_cycle(self):
        system = chain_rowmotion(3, 3)
        by_label = {system.labels[o[0]]: [system.labels[x] for x in o]
                    for o in orbits(system)}
        assert by_label["000"] == ["000", "002", "022", "222"]
        assert by_label["001"] == ["001", "012", "122", "111"]
        assert by_label["011"] == ["011", "112"]

    def test_identity_permutation(self):
        system = FiniteSystem(
            perm=(0, 1, 2, 3, 4), period=1, stats=tuple((Fraction(i),) for i in range(5))
        )
        assert orbits(system) == ((0,), (1,), (2,), (3,), (4,))

    def test_orbits_partition_the_index_set(self):
        system = multiset_rotation(4, 3)
        seen = sorted(x for orbit in orbits(system) for x in orbit)
        assert seen == list(range(system.size))

    def test_orbits_sorted_by_smallest_member(self):
        system = multiset_rotation(5, 2)
        starts = [o[0] for o in orbits(system)]
        assert starts == sorted(starts)
        for orbit in orbits(system):
            assert orbit[0] == min(orbit)


class TestMinimalPeriod:
    def test_chain_3_3(self):
        assert minimal_period(chain_rowmotion(3, 3)) == 4

    def test_negation(self):
        assert minimal_period(negation_system()) == 2

    def test_rotation_3_2(self):
        assert minimal_period(multiset_rotation(3, 2)) == 3


@st.composite
def random_systems(draw):
    import math

    size = draw(st.integers(1, 7))
    perm = tuple(draw(st.permutations(range(size))))
    cycle_lcm = math.lcm(*(len(o) for o in orbits_of(perm)))
    period = cycle_lcm * draw(st.sampled_from([1, 2]))
    k = draw(st.integers(0, 3))
    stats = tuple(
        tuple(
            draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            for _ in range(k)
        )
        for _ in range(size)
    )
    return FiniteSystem(perm=perm, period=period, stats=stats)


def orbits_of(perm):
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        cycles.append(tuple(cycle))
    return cycles


@given(random_systems())
def test_random_systems_validate_and_partition(system):
    assert validate(system) == []
    assert sum(len(o) for o in orbits(system)) == system.size
    assert minimal_period(system) >= 1
    assert system.period % minimal_period(system) == 0


def test_orbits_reject_non_bijection():
    bad = FiniteSystem(perm=(0, 0), period=1, stats=((), ()))
    with pytest.raises(ValueError):
        orbits(bad)
    assert "orbits" not in bad._memo
