"""Piecewise-linear rowmotion on the order polytope of the 2 x 2 grid poset.

Points are 4-tuples (x1, x2, x3, x4) of rationals with x1 <= x2 <= x4,
x1 <= x3 <= x4 and 0 <= x1, x4 <= 1.  Rowmotion factors through three
transfer maps (down-transfer, inverse up-transfer, complementation), and
each factor becomes linear on the 6-dimensional extension of a point by
max(x2, x3) and the constant 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exact import ExactMatrix

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


def _frac4(p) -> Point:
    if len(p) != 4:
        raise ValueError("expected a 4-tuple")
    return tuple(v if type(v) is Fraction else Fraction(v) for v in p)  # type: ignore[return-value]


def in_order_polytope(p) -> bool:
    x1, x2, x3, x4 = _frac4(p)
    return 0 <= x1 <= x2 <= x4 <= 1 and x1 <= x3 <= x4


def nabla(p) -> Point:
    """Down-transfer: each coordinate minus the max of its lower covers."""
    x1, x2, x3, x4 = _frac4(p)
    return (x1, x2 - x1, x3 - x1, x4 - max(x2, x3))


def delta_inv(q) -> Point:
    """Inverse up-transfer: each coordinate plus the image above it."""
    y1, y2, y3, y4 = _frac4(q)
    return (y1 + max(y2, y3) + y4, y2 + y4, y3 + y4, y4)


def theta(z) -> Point:
    """Complementation within [0, 1]."""
    z1, z2, z3, z4 = _frac4(z)
    one = Fraction(1)
    return (one - z1, one - z2, one - z3, one - z4)


def pl_rowmotion(p) -> Point:
    """theta o delta_inv o nabla; has order 4 on the whole polytope."""
    if not in_order_polytope(p):
        raise ValueError(f"point {p} violates the order-polytope constraints")
    return theta(delta_inv(nabla(p)))


def extend_point(p) -> tuple[Fraction, ...]:
    """Append max of the two middle coordinates and the constant 1."""
    v = _frac4(p)
    return v + (max(v[1], v[2]), Fraction(1))


def lifted_nabla() -> ExactMatrix:
    """6x6 matrix pushing extended points through the down-transfer."""
    return ExactMatrix.from_rows(
        [
            [1, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0],
            [-1, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, -1, 0],
            [-1, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )


def lifted_delta_inv() -> ExactMatrix:
    """6x6 matrix pushing extended points through the inverse up-transfer."""
    return ExactMatrix.from_rows(
        [
            [1, 0, 0, 1, 1, 0],
            [0, 1, 0, 1, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )


def lifted_theta() -> ExactMatrix:
    """6x6 matrix pushing extended points through complementation.

    The fifth row uses max(1-s, 1-t) = 1 - s - t + max(s, t).
    """
    return ExactMatrix.from_rows(
        [
            [-1, 0, 0, 0, 0, 1],
            [0, -1, 0, 0, 0, 1],
            [0, 0, -1, 0, 0, 1],
            [0, 0, 0, -1, 0, 1],
            [0, -1, -1, 0, 1, 1],
            [0, 0, 0, 0, 0, 1],
        ]
    )


def rowmotion_lift() -> ExactMatrix:
    """Composite lift: extend(rowmotion(p)) = rowmotion_lift() * extend(p)."""
    return lifted_theta() * lifted_delta_inv() * lifted_nabla()


def polytope_vertices() -> list[Point]:
    """All 0/1 points satisfying the order constraints."""
    out = []
    for bits in range(16):
        p = tuple(Fraction((bits >> i) & 1) for i in range(4))
        if in_order_polytope(p):
            out.append(p)
    return out


def random_polytope_point(
    rng: random.Random, max_denominator: int = 1000, avoid_ties: bool = True
) -> Point:
    """A random rational point of the polytope.

    Draws four rationals, sorts them, and uses the extremes as x1, x4 and the
    middle pair (in random order) as x2, x3.  With avoid_ties, resamples until
    x2 != x3 so both branches of every max() get exercised.
    """

    def draw() -> Fraction:
        den = rng.randint(1, max_denominator)
        return Fraction(rng.randint(0, den), den)

    while True:
        vals = sorted(draw() for _ in range(4))
        mid = [vals[1], vals[2]]
        rng.shuffle(mid)
        p = (vals[0], mid[0], mid[1], vals[3])
        if avoid_ties and p[1] == p[2]:
            continue
        return p


def lift_consistency_check(samples: int, seed: int = 0) -> bool:
    """Check extend o map = lift * extend for all three factors and the composite.

    Runs on `samples` random tie-free rational points; exact equality
    throughout.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    n_mat = lifted_nabla()
    d_mat = lifted_delta_inv()
    h_mat = lifted_theta()
    full = h_mat * d_mat * n_mat
    for _ in range(samples):
        p = random_polytope_point(rng)
        y = nabla(p)
        z = delta_inv(y)
        x1 = theta(z)
        if extend_point(y) != n_mat.apply(extend_point(p)):
            return False
        if extend_point(z) != d_mat.apply(extend_point(y)):
            return False
        if extend_point(x1) != h_mat.apply(extend_point(z)):
            return False
        if extend_point(pl_rowmotion(p)) != full.apply(extend_point(p)):
            return False
    return True
