"""Piecewise-linear rowmotion on the order polytope of the 2 x 2 grid poset.

Points are 4-tuples (x1, x2, x3, x4) of rationals with x1 <= x2 <= x4,
x1 <= x3 <= x4 and 0 <= x1, x4 <= 1.  Rowmotion factors through three
transfer maps (down-transfer, inverse up-transfer, complementation), and
each factor becomes linear on the 6-dimensional extension of a point by
max(x2, x3) and the constant 1.

Each map works on integers: a point p is scaled once, by the lcm L of its
denominators, to homogeneous coordinates (L * p, L).  The transfer maps
commute with scaling by L > 0, since max does; complementation becomes
z -> L - z and the polytope test 0 <= x1 <= x2 <= x4 <= L, x1 <= x3 <= x4.
A Fraction is built only for a returned coordinate.  The 6x6 lifts are
tuples of integer rows, multiplied by `exact._int_product`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .exact import _int_product, _scale_to_int

__all__ = [
    "delta_inv",
    "extend_point",
    "in_order_polytope",
    "lift_consistency_check",
    "lifted_delta_inv",
    "lifted_nabla",
    "lifted_theta",
    "nabla",
    "pl_rowmotion",
    "polytope_vertices",
    "random_polytope_point",
    "rowmotion_lift",
    "theta",
]

Point = tuple[Fraction, Fraction, Fraction, Fraction]
Ints = Sequence[int]
IntRows = tuple[tuple[int, ...], ...]


def _homogeneous(p) -> tuple[list[int], int]:
    """(L * p, L) for the lcm L of the denominators of the 4-tuple p."""
    if len(p) != 4:
        raise ValueError("expected a 4-tuple")
    den, ints = _scale_to_int([v if type(v) is Fraction else Fraction(v) for v in p])
    return ints, den


def _point(x: Ints, den: int) -> Point:
    return tuple(Fraction(v, den) for v in x)  # type: ignore[return-value]


def _inside(x: Ints, den: int) -> bool:
    x1, x2, x3, x4 = x
    return 0 <= x1 <= x2 <= x4 <= den and x1 <= x3 <= x4


def _nabla(x: Ints) -> tuple[int, ...]:
    x1, x2, x3, x4 = x
    return (x1, x2 - x1, x3 - x1, x4 - max(x2, x3))


def _delta_inv(y: Ints) -> tuple[int, ...]:
    y1, y2, y3, y4 = y
    return (y1 + max(y2, y3) + y4, y2 + y4, y3 + y4, y4)


def _theta(z: Ints, den: int) -> tuple[int, ...]:
    return tuple(den - v for v in z)


def _extend(x: Ints, den: int) -> tuple[int, ...]:
    return (*x, max(x[1], x[2]), den)


def in_order_polytope(p) -> bool:
    return _inside(*_homogeneous(p))


def nabla(p) -> Point:
    """Down-transfer: each coordinate minus the max of its lower covers."""
    x, den = _homogeneous(p)
    return _point(_nabla(x), den)


def delta_inv(q) -> Point:
    """Inverse up-transfer: each coordinate plus the image above it."""
    y, den = _homogeneous(q)
    return _point(_delta_inv(y), den)


def theta(z) -> Point:
    """Complementation within [0, 1]."""
    w, den = _homogeneous(z)
    return _point(_theta(w, den), den)


def pl_rowmotion(p) -> Point:
    """theta o delta_inv o nabla; has order 4 on the whole polytope."""
    x, den = _homogeneous(p)
    if not _inside(x, den):
        raise ValueError(f"point {p} violates the order-polytope constraints")
    return _point(_theta(_delta_inv(_nabla(x)), den), den)


def extend_point(p) -> tuple[Fraction, ...]:
    """Append max of the two middle coordinates and the constant 1."""
    x, den = _homogeneous(p)
    return _point(_extend(x, den), den)


def _returns_after(p, steps: int) -> bool:
    """Whether `steps` applications of pl_rowmotion bring p back to itself.

    False as soon as an iterate leaves the polytope, where pl_rowmotion
    raises.  Every iterate stays in the homogeneous coordinates of p.
    """
    return _returns(*_homogeneous(p), steps)


def _returns(x: Ints, den: int, steps: int) -> bool:
    """`_returns_after` at the point x / den, for any den > 0: every map and
    the polytope test commute with scaling, so den need not be the lcm."""
    q = x
    for _ in range(steps):
        if not _inside(q, den):
            return False
        q = _theta(_delta_inv(_nabla(q)), den)
    return list(q) == list(x)


def lifted_nabla() -> IntRows:
    """6x6 matrix pushing extended points through the down-transfer."""
    return (
        (1, 0, 0, 0, 0, 0),
        (-1, 1, 0, 0, 0, 0),
        (-1, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, -1, 0),
        (-1, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )


def lifted_delta_inv() -> IntRows:
    """6x6 matrix pushing extended points through the inverse up-transfer."""
    return (
        (1, 0, 0, 1, 1, 0),
        (0, 1, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (0, 0, 0, 0, 0, 1),
    )


def lifted_theta() -> IntRows:
    """6x6 matrix pushing extended points through complementation.

    The fifth row uses max(1-s, 1-t) = 1 - s - t + max(s, t).
    """
    return (
        (-1, 0, 0, 0, 0, 1),
        (0, -1, 0, 0, 0, 1),
        (0, 0, -1, 0, 0, 1),
        (0, 0, 0, -1, 0, 1),
        (0, -1, -1, 0, 1, 1),
        (0, 0, 0, 0, 0, 1),
    )


def rowmotion_lift() -> IntRows:
    """Composite lift: extend(rowmotion(p)) = rowmotion_lift() * extend(p)."""
    return _int_product(_int_product(lifted_theta(), lifted_delta_inv()), lifted_nabla())


def polytope_vertices() -> list[Point]:
    """All 0/1 points satisfying the order constraints."""
    out = []
    for bits in range(16):
        p = tuple(Fraction((bits >> i) & 1) for i in range(4))
        if in_order_polytope(p):
            out.append(p)
    return out


def _draw_point(rng: random.Random) -> tuple[list[int], int]:
    """(x, den): the point of `random_polytope_point`, as x / den.

    Makes the same rng calls as drawing Fraction(randint(0, d), d) with
    d = randint(1, 1000) four times, sorting and shuffling the middle pair,
    but in integers: each value num / d is scaled to num * (L // d), L the
    lcm of the four d, whose order is that of the Fractions, and the stable
    sort keeps tied values in their order, as `sorted` keeps the Fractions.
    L is not reduced, so den is a multiple of the lcm of the point's
    denominators.
    """
    randint = rng.randint
    while True:
        draws = []
        for _ in range(4):
            d = randint(1, 1000)
            draws.append((randint(0, d), d))
        den = math.lcm(*(d for _, d in draws))
        vals = sorted(num * (den // d) for num, d in draws)
        mid = [vals[1], vals[2]]
        rng.shuffle(mid)
        if mid[0] != mid[1]:
            return [vals[0], mid[0], mid[1], vals[3]], den


def random_polytope_point(rng: random.Random) -> Point:
    """A random rational point of the polytope, with no tie x2 = x3.

    Draws four rationals with denominators up to 1000, sorts them, and uses
    the extremes as x1, x4 and the middle pair (in random order) as x2, x3.
    It resamples until x2 != x3, so both branches of every max() get
    exercised.  The draw runs in integers (`_draw_point`); only the four
    returned coordinates are Fractions.
    """
    return _point(*_draw_point(rng))


def lift_consistency_check(samples: int, seed: int = 0) -> bool:
    """Check extend o map = lift * extend for all three factors and the composite.

    Runs on the `samples` random tie-free rational points that
    `random_polytope_point` draws from Random(seed); exact equality
    throughout.  Each point is drawn in homogeneous integer coordinates
    (`_draw_point`), and the lifts, being linear, act on the extended integer
    vector: the whole chain sums integers, and no Fraction is built.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    n_rows, d_rows, h_rows = lifted_nabla(), lifted_delta_inv(), lifted_theta()
    full_rows = rowmotion_lift()
    for _ in range(samples):
        x, den = _draw_point(rng)
        y = _nabla(x)
        z = _delta_inv(y)
        ex, ey, ez, ew = (_extend(v, den) for v in (x, y, z, _theta(z, den)))
        if (ey, ez, ew, ew) != (
            _int_product(n_rows, ex),
            _int_product(d_rows, ey),
            _int_product(h_rows, ez),
            _int_product(full_rows, ex),
        ):
            return False
    return True
