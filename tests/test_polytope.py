import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles

import dynspan.polytope
from dynspan.exact import _int_product
from dynspan.polytope import (
    _draw_point,
    _returns,
    _returns_after,
    delta_inv,
    extend_point,
    in_order_polytope,
    lift_consistency_check,
    lifted_delta_inv,
    lifted_nabla,
    lifted_theta,
    nabla,
    pl_rowmotion,
    polytope_vertices,
    random_polytope_point,
    rowmotion_lift,
    theta,
)

F = Fraction


class TestTransferMaps:
    def test_nabla_at_origin(self):
        assert nabla((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_nabla_generic_point(self):
        p = (F(1, 4), F(1, 2), F(1, 3), F(3, 4))
        assert nabla(p) == (F(1, 4), F(1, 4), F(1, 12), F(1, 4))

    def test_theta_complements(self):
        assert theta((0, 0, 0, 0)) == (1, 1, 1, 1)
        assert theta((F(1, 3), F(1, 2), F(2, 3), 1)) == (
            F(2, 3),
            F(1, 2),
            F(1, 3),
            0,
        )

    def test_delta_inv_generic(self):
        q = (F(1, 4), F(1, 4), F(1, 12), F(1, 4))
        assert delta_inv(q) == (F(3, 4), F(1, 2), F(1, 3), F(1, 4))

    def test_composition_is_rowmotion(self):
        p = (F(1, 4), F(1, 2), F(1, 3), F(3, 4))
        assert pl_rowmotion(p) == theta(delta_inv(nabla(p)))


class TestRowmotionOrder:
    def test_center_has_period_dividing_4(self):
        p = (F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        q = p
        for _ in range(4):
            q = pl_rowmotion(q)
        assert q == p

    def test_vertex_maps_into_polytope(self):
        assert in_order_polytope(pl_rowmotion((0, 0, 0, 0)))

    def test_fourth_iterate_is_identity_on_random_points(self):
        rng = random.Random(13)
        for _ in range(200):
            p = random_polytope_point(rng)
            q = p
            for _ in range(4):
                q = pl_rowmotion(q)
                assert in_order_polytope(q)
            assert q == p

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            pl_rowmotion((F(1), F(0), F(0), F(0)))  # x1 > x2 violates the order

    def test_all_six_vertices(self):
        vertices = polytope_vertices()
        assert len(vertices) == 6
        for p in vertices:
            q = p
            for _ in range(4):
                q = pl_rowmotion(q)
            assert q == p


class TestLifts:
    def test_nabla_lift_on_generic_point(self):
        p = (F(1, 4), F(1, 2), F(1, 3), F(3, 4))
        ext = extend_point(p)
        assert ext == (F(1, 4), F(1, 2), F(1, 3), F(3, 4), F(1, 2), 1)
        lifted = _int_product(lifted_nabla(), ext)
        assert lifted == (F(1, 4), F(1, 4), F(1, 12), F(1, 4), F(1, 4), 1)
        assert lifted == extend_point(nabla(p))

    def test_theta_lift_at_origin(self):
        assert _int_product(lifted_theta(), (0, 0, 0, 0, 0, 1)) == (1, 1, 1, 1, 1, 1)

    def test_composite_lift_has_order_4(self):
        lift = rowmotion_lift()
        square = _int_product(lift, lift)
        identity = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        assert square != identity
        assert _int_product(square, square) == identity

    def test_factor_lifts_match_maps_pointwise(self):
        rng = random.Random(14)
        n_mat, d_mat, h_mat = lifted_nabla(), lifted_delta_inv(), lifted_theta()
        for _ in range(100):
            p = random_polytope_point(rng)
            y = nabla(p)
            z = delta_inv(y)
            assert extend_point(y) == _int_product(n_mat, extend_point(p))
            assert extend_point(z) == _int_product(d_mat, extend_point(y))
            assert extend_point(theta(z)) == _int_product(h_mat, extend_point(z))

    def test_tie_point_boundary_case(self):
        # equal middle coordinates hit both max() branches at once
        p = (F(1, 5), F(2, 5), F(2, 5), F(4, 5))
        assert extend_point(pl_rowmotion(p)) == _int_product(rowmotion_lift(), extend_point(p))
        q = p
        for _ in range(4):
            q = pl_rowmotion(q)
        assert q == p

    def test_consistency_check(self):
        assert lift_consistency_check(50)

    def test_consistency_check_needs_samples(self):
        with pytest.raises(ValueError):
            lift_consistency_check(0)


def test_random_points_avoid_ties_and_stay_inside():
    rng = random.Random(15)
    for _ in range(200):
        p = random_polytope_point(rng)
        assert in_order_polytope(p)
        assert p[1] != p[2]


def test_integer_draw_gives_the_fraction_draws_points():
    # the same rng calls in the same order, so the same points, Fractions all;
    # seed 778 is the draw of lift_consistency_check in verify-paper
    redraws = 0
    for seed in (0, 13, 777, 778):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            want, tries = oracles.polytope_draw(theirs)
            assert_same_point(random_polytope_point(ours), want)
            redraws += tries > 1
        assert ours.getstate() == theirs.getstate()
    assert redraws > 0


def test_integer_draw_is_the_point_over_any_multiple_of_its_lcm():
    # den is the lcm of the four drawn denominators, not of the point's
    # reduced ones; the iterates at x / den are those of the point
    rng, theirs = random.Random(21), random.Random(21)
    reduced = 0
    for _ in range(300):
        x, den = _draw_point(rng)
        p, _ = oracles.polytope_draw(theirs)
        assert tuple(F(v, den) for v in x) == p
        assert all(type(v) is int for v in (*x, den))
        reduced += den != math.lcm(*(v.denominator for v in p))
        for c in (1, 3):
            for steps in (1, 2, 4):
                scaled = [c * v for v in x]
                assert _returns(scaled, c * den, steps) is oracle_returns_after(p, steps)
    assert reduced


def test_consistency_check_reads_the_drawn_points(monkeypatch):
    # lift_consistency_check(samples, seed) runs on the points that
    # random_polytope_point draws from Random(seed)
    drawn = []

    def recording(rng):
        x, den = _draw_point(rng)
        drawn.append(tuple(F(v, den) for v in x))
        return x, den

    monkeypatch.setattr(dynspan.polytope, "_draw_point", recording)
    assert lift_consistency_check(40, seed=778)
    theirs = random.Random(778)
    assert drawn == [oracles.polytope_draw(theirs)[0] for _ in range(40)]


# each map on homogeneous integer coordinates against its Fraction definition
MAPS = [
    (nabla, oracles.nabla),
    (delta_inv, oracles.delta_inv),
    (theta, oracles.theta),
    (extend_point, oracles.extend_point),
]


def tied_point(rng):
    """A point drawn as `random_polytope_point` draws one, but with
    denominators up to 4 and ties kept."""

    def draw():
        den = rng.randint(1, 4)
        return F(rng.randint(0, den), den)

    vals = sorted(draw() for _ in range(4))
    mid = [vals[1], vals[2]]
    rng.shuffle(mid)
    return (vals[0], mid[0], mid[1], vals[3])


def polytope_points():
    rng = random.Random(16)
    points = [random_polytope_point(rng) for _ in range(100)]
    # small denominators: x2 = x3 and the other ties come up often
    points += [tied_point(rng) for _ in range(100)]
    points += polytope_vertices()
    # int and str coordinates, inside and outside the polytope
    points += [(0, 1, "1/2", 1), ("1/3", "2/3", "1/2", 1), (1, 1, 1, 1)]
    points += [(1, 0, 0, 0), (0, 0, 0, 2), (-1, 0, 0, 0), ("3/2", 2, 2, "5/2")]
    points += [(F(1, 3), F(1, 2), F(2, 3), F(1, 4)), (F(1, 2), F(1, 3), F(2, 3), 1)]
    return points


def assert_same_point(got, want):
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def assert_maps_match_fraction_definitions(p):
    for ours, oracle in MAPS:
        assert_same_point(ours(p), oracle(p))
    assert in_order_polytope(p) is oracles.in_order_polytope(p)
    try:
        want = oracles.pl_rowmotion(p)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            pl_rowmotion(p)
        assert str(raised.value) == str(error)
    else:
        assert_same_point(pl_rowmotion(p), want)
    for steps in (1, 2, 4):
        assert _returns_after(p, steps) is oracle_returns_after(p, steps)


def oracle_returns_after(p, steps):
    q = p
    for _ in range(steps):
        if not oracles.in_order_polytope(q):
            return False
        q = oracles.pl_rowmotion(q)
    return q == tuple(F(v) for v in p)


def test_integer_maps_match_fraction_definitions():
    points = polytope_points()
    assert any(p[1] == p[2] for p in points[100:200])
    assert not all(in_order_polytope(p) for p in points)
    assert all(_returns_after(p, 4) for p in points if in_order_polytope(p))
    for p in points:
        assert_maps_match_fraction_definitions(p)


@given(st.lists(st.fractions(-2, 2, max_denominator=12), min_size=4, max_size=4))
@example([F(0)] * 4)
@example([F(2**65, 3), F(2**65 + 1, 3), F(1, 2**64), F(2**66)])
def test_integer_maps_match_fraction_definitions_anywhere(p):
    assert_maps_match_fraction_definitions(tuple(p))


def test_maps_reject_other_lengths():
    for ours in [m for m, _ in MAPS] + [pl_rowmotion, in_order_polytope]:
        with pytest.raises(ValueError):
            ours((0, 0, 0))


def test_consistency_check_detects_a_wrong_lift(monkeypatch):
    monkeypatch.setattr(dynspan.polytope, "lifted_theta", lifted_nabla)
    assert not lift_consistency_check(5)
