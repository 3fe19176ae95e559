"""Exact linear algebra over the rationals and over cyclotomic fields.

Scalars are either `fractions.Fraction` or `CycNumber`, an element of the
field Q(zeta_d).  A `CycNumber` is an integer coefficient vector over a
common positive denominator, in lowest terms: the vector is a polynomial in
zeta_d reduced modulo the d-th cyclotomic polynomial.  Field arithmetic and
the Z[zeta_d] Bareiss kernel share the same integer helpers, so cyclotomic
matrix entries go into elimination without a detour through `Fraction`.
Matrices are dense and immutable, and carry a single scalar kind.  Rank,
column-basis and nullspace computations use fraction-free (Bareiss)
elimination with first-nonzero pivoting, so results are deterministic across
runs and never touch floating point.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

__all__ = [
    "CycNumber",
    "ExactMatrix",
    "Scalar",
    "cyclotomic_polynomial",
    "divisors",
    "euler_phi",
    "mobius",
]

Scalar = Union[Fraction, "CycNumber"]


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p, e in _factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    factors = _factorize(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


# ---------------------------------------------------------------------------
# integer polynomials and the cyclotomic polynomials


def _poly_div_exact_int(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Divide integer polynomials exactly; `den` must be monic and divide `num`."""
    work = list(num)
    dn = len(work) - 1
    dd = len(den) - 1
    if den[dd] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (dn - dd + 1)
    for i in range(dn, dd - 1, -1):
        c = work[i]
        if c:
            quot[i - dd] = c
            for t in range(dd + 1):
                work[i - dd + t] -= c * den[t]
    if any(work):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, ascending degree.

    Computed by dividing x^d - 1 by the cyclotomic polynomials of the proper
    divisors of d; the result is monic of degree euler_phi(d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    poly: tuple[int, ...] = tuple([-1] + [0] * (d - 1) + [1])
    for e in divisors(d)[:-1]:
        poly = _poly_div_exact_int(poly, cyclotomic_polynomial(e))
    return poly


# ---------------------------------------------------------------------------
# Z[zeta_d] on integer coefficient vectors


@lru_cache(maxsize=None)
def _field(order: int) -> tuple[int, tuple[int, ...]]:
    """(phi(order), coefficients of the order-th cyclotomic polynomial)."""
    return euler_phi(order), cyclotomic_polynomial(order)


def _cyc_reduce_int(work: list[int], phi: int, mod: tuple[int, ...]) -> None:
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            base = i - phi
            for t in range(phi):
                work[base + t] -= c * mod[t]
            work[i] = 0


def _cyc_mul_int(
    a: Sequence[int], b: Sequence[int], phi: int, mod: tuple[int, ...]
) -> list[int]:
    prod = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    _cyc_reduce_int(prod, phi, mod)
    return prod[:phi]


def _cyc_conjugate_int(
    a: Sequence[int], t: int, order: int, phi: int, mod: tuple[int, ...]
) -> list[int]:
    """Image of the coefficient vector under zeta -> zeta^t."""
    raw = [0] * order
    for i, ai in enumerate(a):
        if ai:
            raw[(i * t) % order] += ai
    _cyc_reduce_int(raw, phi, mod)
    return raw[:phi]


def _cyc_adjoint_int(
    a: Sequence[int], order: int, phi: int, mod: tuple[int, ...]
) -> tuple[list[int], int]:
    """(adj, norm) with a * adj = norm, norm a nonzero rational integer."""
    adj = [1] + [0] * (phi - 1)
    for t in range(2, order):
        if math.gcd(t, order) == 1:
            adj = _cyc_mul_int(adj, _cyc_conjugate_int(a, t, order, phi, mod), phi, mod)
    norm_poly = _cyc_mul_int(adj, a, phi, mod)
    if any(norm_poly[1:]) or norm_poly[0] == 0:
        raise ArithmeticError("conjugate product is not a nonzero integer")
    return adj, norm_poly[0]


def _cyc(order: int, num: Sequence[int], den: int) -> "CycNumber":
    """The element num/den of Q(zeta_order); den must be positive."""
    obj = object.__new__(CycNumber)
    obj._set(order, num, den)
    return obj


class CycNumber:
    """An element of the cyclotomic field Q(zeta_order).

    Stored as num/den: `num` holds the euler_phi(order) integer coefficients
    of a polynomial in zeta_order reduced modulo the order-th cyclotomic
    polynomial, and `den` is a positive integer with gcd(den, *num) = 1.
    Each element has exactly one such form, so equality and hashing compare
    fields, and an element is zero iff every entry of `num` is.  Products
    run on the same integer helpers as the Z[zeta] Bareiss kernel, and the
    inverse is adj/N: adj is the product of the nontrivial conjugates and
    N = a * adj a nonzero integer.  Instances are immutable.
    """

    __slots__ = ("order", "num", "den")

    order: int
    num: tuple[int, ...]
    den: int

    def __init__(self, order: int, coeffs: Sequence[Fraction | int]) -> None:
        phi = _field(order)[0]
        if len(coeffs) != phi:
            raise ValueError(
                f"need exactly {phi} coefficients for order {order}, got {len(coeffs)}"
            )
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in fracs))
        self._set(order, [q.numerator * (den // q.denominator) for q in fracs], den)

    def _set(self, order: int, num: Sequence[int], den: int) -> None:
        g = math.gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CycNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of the reduced polynomial in zeta, as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @classmethod
    def zero(cls, order: int) -> "CycNumber":
        return _cyc(order, (0,) * _field(order)[0], 1)

    @classmethod
    def one(cls, order: int) -> "CycNumber":
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, value: Fraction | int, order: int) -> "CycNumber":
        q = Fraction(value)
        zeros = (0,) * (_field(order)[0] - 1)
        return _cyc(order, (q.numerator,) + zeros, q.denominator)

    @classmethod
    def root(cls, order: int, power: int = 1) -> "CycNumber":
        """zeta_order ** power, reduced into the standard representation."""
        phi, mod = _field(order)
        power %= order
        raw = [0] * max(power + 1, phi)
        raw[power] = 1
        _cyc_reduce_int(raw, phi, mod)
        return _cyc(order, raw[:phi], 1)

    def __bool__(self) -> bool:
        return any(self.num)

    def _coerce(self, other: object) -> "CycNumber | None":
        if isinstance(other, CycNumber):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(other, self.order)
        return None

    def __add__(self, other: object) -> "CycNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _cyc(self.order, [a + b for a, b in zip(self.num, o.num)], da)
        return _cyc(
            self.order, [a * db + b * da for a, b in zip(self.num, o.num)], da * db
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "CycNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _cyc(self.order, [a - b for a, b in zip(self.num, o.num)], da)
        return _cyc(
            self.order, [a * db - b * da for a, b in zip(self.num, o.num)], da * db
        )

    def __rsub__(self, other: object) -> "CycNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CycNumber":
        return _cyc(self.order, [-v for v in self.num], self.den)

    def __mul__(self, other: object) -> "CycNumber":
        if isinstance(other, (int, Fraction)):
            return _cyc(
                self.order,
                [v * other.numerator for v in self.num],
                self.den * other.denominator,
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi, mod = _field(self.order)
        prod = _cyc_mul_int(self.num, o.num, phi, mod)
        return _cyc(self.order, prod, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Multiplicative inverse: den * adj / N, exact since a * adj = N."""
        if not self:
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        phi, mod = _field(self.order)
        adj, norm = _cyc_adjoint_int(self.num, self.order, phi, mod)
        if norm < 0:
            adj, norm = [-v for v in adj], -norm
        return _cyc(self.order, [v * self.den for v in adj], norm)

    def __truediv__(self, other: object) -> "CycNumber":
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "CycNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "CycNumber":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = CycNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CycNumber):
            return (
                self.order == other.order
                and self.den == other.den
                and self.num == other.num
            )
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.num, self.den))

    def __repr__(self) -> str:
        return f"Cyc{self.order}[{', '.join(str(c) for c in self.coeffs)}]"


# ---------------------------------------------------------------------------
# elimination cores


def _int_rows(entries: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators.

    Row scaling by nonzero constants preserves rank, column dependence
    relations and the nullspace, and lets elimination run on plain ints.
    """
    out: list[list[int]] = []
    for row in entries:
        scale = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _bareiss_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free forward elimination on integer rows.

    Pivots are chosen left-to-right by column, first nonzero entry from the
    top.  Returns the echelon rows and the pivot column indices.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        piv = rr[c]
        scale_only = piv == prev
        for i in range(r + 1, nrows):
            ri = rows[i]
            aic = ri[c]
            if aic:
                for j in range(c + 1, ncols):
                    q, rem = divmod(ri[j] * piv - aic * rr[j], prev)
                    if rem:
                        raise ArithmeticError("inexact division in Bareiss step")
                    ri[j] = q
                ri[c] = 0
            elif not scale_only:
                for j in range(c + 1, ncols):
                    q, rem = divmod(ri[j] * piv, prev)
                    if rem:
                        raise ArithmeticError("inexact division in Bareiss step")
                    ri[j] = q
        pivot_cols.append(c)
        prev = piv
        r += 1
    return rows, pivot_cols


def _rotation_closure_rank(rows: list[list[int]], shift: int) -> int:
    """dim of the smallest rotation-invariant subspace containing `rows`.

    The rotation takes a row r to r[shift:] + r[:shift].  The rows are
    queued; each is reduced against a fraction-free echelon basis, in pivot
    order, and when it raises the rank it joins the basis divided by its
    content and its rotation is queued.  The final span contains the given
    rows and the rotation of each row that spans it, so it is that smallest
    invariant subspace.  A matrix whose row at T(x) is its row at x rotated
    has that span for its row space, so one row per T-orbit gives its rank.
    """
    # basis[c] is the tail, from column c, of the basis row with pivot c
    basis: dict[int, list[int]] = {}
    queue = deque(rows)
    while queue:
        row = queue.popleft()
        width = len(row)
        c = 0
        while c < width and not row[c]:
            c += 1
        tail = row[c:]
        while c < width:
            pivot_row = basis.get(c)
            if pivot_row is None:
                g = math.gcd(*tail)
                basis[c] = [v // g for v in tail] if g > 1 else tail
                queue.append(row[shift:] + row[:shift])
                break
            a, p = tail[0], pivot_row[0]
            g = math.gcd(a, p)
            a, p = a // g, p // g
            tail = [p * v - a * w for v, w in zip(tail, pivot_row)]
            skip = 1
            while skip < len(tail) and not tail[skip]:
                skip += 1
            tail = tail[skip:]
            c += skip
    return len(basis)


# Cyclotomic entries are eliminated on integer coefficient vectors: each row
# is scaled so every coefficient is an integer, and the Bareiss division by
# the previous pivot (exact in Z[zeta_d], since working entries are minors)
# is carried out as multiplication by the product of the pivot's nontrivial
# conjugates followed by exact integer division by its norm.


def _cyc_int_rows(
    entries: Sequence[Sequence[CycNumber]],
) -> list[list[tuple[int, ...]]]:
    """Scale each row by the lcm of its entries' denominators."""
    out = []
    for row in entries:
        scale = math.lcm(*(v.den for v in row))
        out.append([tuple(c * (scale // v.den) for c in v.num) for v in row])
    return out


def _bareiss_cyc_int(
    rows: list[list[tuple[int, ...]]], order: int
) -> tuple[list[list[tuple[int, ...]]], list[int]]:
    """Fraction-free elimination on integer coefficient vectors in Z[zeta]."""
    phi, mod = _field(order)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    zero = (0,) * phi
    pivot_cols: list[int] = []
    r = 0
    prev_adj: list[int] | None = None  # None means the previous pivot is 1
    prev_norm = 1

    def divide(vec: list[int]) -> tuple[int, ...]:
        if prev_adj is not None:
            vec = _cyc_mul_int(vec, prev_adj, phi, mod)
            out = []
            for v in vec:
                q, rem = divmod(v, prev_norm)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss step")
                out.append(q)
            return tuple(out)
        return tuple(vec)

    for c in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if any(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        piv = rr[c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            aic = ri[c]
            if any(aic):
                for j in range(c + 1, ncols):
                    left = _cyc_mul_int(ri[j], piv, phi, mod)
                    right = _cyc_mul_int(aic, rr[j], phi, mod)
                    ri[j] = divide([x - y for x, y in zip(left, right)])
                ri[c] = zero
            else:
                for j in range(c + 1, ncols):
                    ri[j] = divide(_cyc_mul_int(ri[j], piv, phi, mod))
        pivot_cols.append(c)
        prev_adj, prev_norm = _cyc_adjoint_int(piv, order, phi, mod)
        r += 1
    return rows, pivot_cols


@dataclass(frozen=True)
class ExactMatrix:
    """A dense immutable matrix over Q or over a single cyclotomic field."""

    entries: tuple[tuple[Scalar, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        order = None
        for r in rows:
            for v in r:
                if isinstance(v, CycNumber):
                    order = v.order
                    break
            if order is not None:
                break
        out: list[tuple[Scalar, ...]] = []
        for r in rows:
            if order is None:
                out.append(tuple(v if type(v) is Fraction else Fraction(v) for v in r))
            else:
                conv = []
                for v in r:
                    if isinstance(v, CycNumber):
                        if v.order != order:
                            raise ValueError("mixed cyclotomic orders in one matrix")
                        conv.append(v)
                    else:
                        conv.append(CycNumber.from_rational(Fraction(v), order))
                out.append(tuple(conv))
        return cls(tuple(out))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_cyclotomic(self) -> bool:
        return self.cols > 0 and isinstance(self.entries[0][0], CycNumber)

    def _zero_scalar(self) -> Scalar:
        if self.is_cyclotomic:
            return CycNumber.zero(self.entries[0][0].order)
        return Fraction(0)

    def _one_scalar(self) -> Scalar:
        if self.is_cyclotomic:
            return CycNumber.one(self.entries[0][0].order)
        return Fraction(1)

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def _check_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            cols = other.cols
            out = []
            for ra in self.entries:
                row = []
                for j in range(cols):
                    acc = None
                    for a, rb in zip(ra, other.entries):
                        term = a * rb[j]
                        acc = term if acc is None else acc + term
                    row.append(acc if acc is not None else self._zero_scalar())
                out.append(tuple(row))
            return ExactMatrix(tuple(out))
        if isinstance(other, (int, Fraction, CycNumber)):
            return ExactMatrix(
                tuple(tuple(v * other for v in r) for r in self.entries)
            )
        return NotImplemented

    def __rmul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, (int, Fraction, CycNumber)):
            return ExactMatrix(
                tuple(tuple(other * v for v in r) for r in self.entries)
            )
        return NotImplemented

    def __pow__(self, exponent: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        one, zero = self._one_scalar(), self._zero_scalar()
        out = ExactMatrix(
            tuple(
                tuple(one if i == j else zero for j in range(self.cols))
                for i in range(self.rows)
            )
        )
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def apply(self, vector: Sequence[object]) -> tuple[Scalar, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.entries:
            acc = self._zero_scalar()
            for a, v in zip(r, vector):
                acc = acc + a * v
            out.append(acc)
        return tuple(out)

    # -- elimination-backed queries ------------------------------------

    def _echelon(self):
        """Echelon rows, pivot columns, and a lift of raw entries to the field."""
        if self.is_cyclotomic:
            order = self.entries[0][0].order
            rows, pivots = _bareiss_cyc_int(_cyc_int_rows(self.entries), order)

            def lift(raw: tuple[int, ...]) -> Scalar:
                return _cyc(order, raw, 1)

        else:
            rows, pivots = _bareiss_int(_int_rows(self.entries))
            lift = Fraction
        return rows, pivots, lift

    def rank(self) -> int:
        """Exact rank over the matrix's scalar field."""
        return len(self._echelon()[1])

    def column_basis(self) -> list[int]:
        """Indices of the greedy left-to-right maximal independent column set."""
        return self._echelon()[1]

    def nullspace_basis(self) -> list[tuple[Scalar, ...]]:
        """cols - rank linearly independent vectors v with self * v = 0."""
        ech, pivot_cols, lift = self._echelon()
        ncols = self.cols
        zero = self._zero_scalar()
        one = self._one_scalar()
        pivset = set(pivot_cols)
        basis: list[tuple[Scalar, ...]] = []
        for fc in (c for c in range(ncols) if c not in pivset):
            v: list[Scalar] = [zero] * ncols
            v[fc] = one
            for t in range(len(pivot_cols) - 1, -1, -1):
                pc = pivot_cols[t]
                acc = zero
                for c2 in range(pc + 1, ncols):
                    if v[c2]:
                        acc = acc + lift(ech[t][c2]) * v[c2]
                v[pc] = -acc / lift(ech[t][pc]) if acc else zero
            basis.append(tuple(v))
        return basis

    def det_cofactor(self) -> Scalar:
        """Determinant by cofactor expansion (the brute-force route)."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        ent = self.entries
        zero = self._zero_scalar()
        one = self._one_scalar()
        memo: dict[int, Scalar] = {}

        def minor(mask: int) -> Scalar:
            if mask == 0:
                return one
            cached = memo.get(mask)
            if cached is not None:
                return cached
            r = n - bin(mask).count("1")
            total = zero
            sign = 1
            m = mask
            while m:
                low = m & -m
                c = low.bit_length() - 1
                v = ent[r][c]
                if v:
                    term = v * minor(mask ^ low)
                    total = total + term if sign > 0 else total - term
                sign = -sign
                m ^= low
            memo[mask] = total
            return total

        return minor((1 << n) - 1)
