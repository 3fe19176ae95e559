"""The period-5 map (x, y) -> (y, (y+1)/x) and its action on monomials.

Monomials x^a y^b (x+1)^c (y+1)^d (x+y+1)^e are tracked by their integer
exponent vectors (a, b, c, d, e).  Composing a monomial with the map is the
linear action of a 5x5 integer matrix on exponent columns; the matrix has
order 5 and each 5th root of unity appears in its spectrum once.  The
matrix and its orbit sum I + M + ... + M^4 are tuples of integer rows, and
act on exponent vectors by `exact._int_product`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exact import _int_product

__all__ = [
    "lyness_homomesy_check",
    "lyness_map",
    "lyness_matrix",
    "lyness_numeric_orbit_sum",
    "lyness_orbit",
    "lyness_orbit_sum_operator",
    "lyness_pullback",
]

ExpVector = tuple[int, int, int, int, int]
IntRows = tuple[tuple[int, ...], ...]

_M_ROWS = (
    (0, -1, 0, -1, -1),
    (1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 1, 0, 1),
    (0, 0, 0, 1, 0),
)


def lyness_matrix() -> IntRows:
    """Exponent action: monomial_v o T = monomial_{M v} (column convention),
    as integer rows."""
    return _M_ROWS


def _check_domain(x: Fraction, y: Fraction) -> None:
    _check_factors((x, y, x + 1, y + 1, x + y + 1))


def _check_factors(values) -> None:
    """Raise on the first zero of x, y, x+1, y+1, x+y+1 (or their numerators)."""
    for name, value in zip(("x", "y", "x+1", "y+1", "x+y+1"), values):
        if not value:
            raise ValueError(f"point outside the domain: {name} = 0")


def lyness_map(x, y) -> tuple[Fraction, Fraction]:
    """One step of the recurrence; the fifth iterate is the identity."""
    x, y = Fraction(x), Fraction(y)
    _check_domain(x, y)
    return (y, (y + 1) / x)


def lyness_orbit(x, y) -> list[tuple[Fraction, Fraction]]:
    """The 5 points of the orbit through (x, y).

    The domain is invariant under the map (see `_orbit_log_sum`), so only
    the seed is checked, with the ValueError of `lyness_map`.
    """
    x, y = Fraction(x), Fraction(y)
    _check_domain(x, y)
    out = [(x, y)]
    for _ in range(4):
        x, y = y, (y + 1) / x
        out.append((x, y))
    return out


def lyness_pullback(v) -> ExpVector:
    """Exponent vector of monomial_v composed with the map."""
    return _int_product(_M_ROWS, _exp_vector(v))  # type: ignore[return-value]


@functools.cache
def lyness_orbit_sum_operator() -> IntRows:
    """I + M + M^2 + M^3 + M^4, the orbit-sum action on exponents, as
    integer rows.

    Built once per process: the rows are tuples, so every caller can share
    them.
    """
    m = lyness_matrix()
    powers = [tuple(tuple(int(i == j) for j in range(5)) for i in range(5))]
    for _ in range(4):
        powers.append(_int_product(powers[-1], m))
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*powers))


def lyness_homomesy_check(v) -> bool:
    """True iff log|monomial_v| sums to zero along every 5-orbit.

    Equivalent to the exponent orbit-sum (I + M + ... + M^4) v being zero.
    """
    return not any(_int_product(lyness_orbit_sum_operator(), _exp_vector(v)))


def _exp_vector(v) -> ExpVector:
    vec = tuple(int(c) for c in v)
    if len(vec) != 5:
        raise ValueError("exponent vector must have 5 entries")
    return vec  # type: ignore[return-value]


def _log_abs(q: Fraction) -> float:
    # split numerator/denominator so huge exact values cannot overflow float
    return math.log(abs(q.numerator)) - math.log(q.denominator)


def lyness_numeric_orbit_sum(v, seed) -> float:
    """Sum of log|monomial_v| over the 5-orbit through `seed`.

    The orbit points are exact rationals, and so is the product P_i of the
    i-th factor (x, y, x+1, y+1 or x+y+1) over them.  The sum is
    a_1*log|P_1| + ... + a_5*log|P_5| in floating point, so its cost does
    not grow with the exponents.  An exponent too large for a float raises
    OverflowError, as does a sum past the float range.  Callers compare
    against their own tolerance (the verification suite uses 1e-9).  The
    orbit is walked in integers by `_orbit_log_sum`.
    """
    vec = _exp_vector(v)
    return _orbit_log_sum(vec, *_seed_terms(*seed))


def _seed_terms(x, y) -> tuple[int, int, int, int]:
    x, y = Fraction(x), Fraction(y)
    return x.numerator, x.denominator, y.numerator, y.denominator


def _orbit_log_sum(vec: ExpVector, xn: int, xd: int, yn: int, yd: int) -> float:
    """`lyness_numeric_orbit_sum` of `vec` at the seed (xn/xd, yn/yd), xd and
    yd nonzero, neither pair need be in lowest terms.

    The domain is invariant under the map: the factors at (y, (y+1)/x) are
    y, (y+1)/x, y+1, (x+y+1)/x and (x+1)(y+1)/x.  So only the seed's five
    factors are checked, by their numerators, and raise the ValueError of
    `lyness_map`.  The orbit is walked, (x, y) -> (y, (y+1)/x), on
    unreduced integer pairs.  Each product P_i
    with a_i != 0 is multiplied as an integer numerator and denominator, and
    one Fraction is built of it at the end, the P_i of the Fraction orbit, so
    the sum is the same float.  A zero exponent adds no term: `math.fsum`
    drops zero terms.
    """
    points = []
    for _ in range(5):
        factors = (
            (xn, xd),
            (yn, yd),
            (xn + xd, xd),
            (yn + yd, yd),
            (xn * yd + yn * xd + xd * yd, xd * yd),
        )
        if not points:
            _check_factors(num for num, _ in factors)
        points.append(factors)
        xn, xd, yn, yd = yn, yd, factors[3][0] * xd, yd * xn
    terms = []
    for i, a in enumerate(vec):
        if a:
            num = den = 1
            for factors in points:
                f_num, f_den = factors[i]
                num *= f_num
                den *= f_den
            terms.append(a * _log_abs(Fraction(num, den)))
    if not all(map(math.isfinite, terms)):
        raise OverflowError("numeric orbit sum is out of the float range")
    return math.fsum(terms)
