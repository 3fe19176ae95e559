"""Exact linear algebra over the rationals and over cyclotomic fields.

Scalars are either `fractions.Fraction` or `CycNumber`, an element of the
field Q(zeta_d).  A `CycNumber` is an integer coefficient vector over a
common positive denominator, in lowest terms: the vector is a polynomial in
zeta_d reduced modulo the d-th cyclotomic polynomial.  Matrices are dense
and immutable, carry a single scalar kind and are built from one store,
their rows as integers over positive denominators: one integer per entry
over Q, and over Q(zeta_d) of degree phi the phi coefficients of each entry
laid out flat.  Scalars are a view cut from that store when they are read.
Rank, column-basis and nullspace computations are fraction-free on the
store, in one streaming echelon over Z that reduces a row against its basis
in pivot order and stops once every column has a pivot.  Over Q(zeta_d) it
ranks the flat rows as they are stored and closes the basis under
x -> zeta*x: the result is the row space over Q(zeta_d) read over Q, of
dimension phi times the rank (restriction of scalars).  A rank is at most
the number of nonzero rows and of columns, so with at most one of either it
is read off the store with no elimination.  Results are deterministic
across runs and never touch floating point.  The cofactor determinant
expands the same integer rows, row i scaled by s_i, the lcm of its
denominators, and divides by the product of the s_i once.

The rank of a rotation closure, the smallest subspace that contains some
integer rows and is closed under rotating their entries by a fixed shift, has
two exact kernels, chosen by the shape of the input.  With rows at least 3/4
of the columns, a fraction-free Gauss-Jordan basis tests each row with one
dot product per column that has no pivot: every entry of the basis is a minor
of the rows that joined it, so the sizes stay under the Hadamard bound, and
every division in an update is exact by Sylvester's identity.  It reads the
rotations of each row that joins right after it, so it also names the given
rows that generate the closure, each outside the closure of those before it.
With fewer rows, most rows come from rotations and join the basis, and the
streaming echelon over Z reduces each against it, queueing the rotation of
each row that joins.  Both stop reading rows once every column has a pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import mul
from typing import Callable, Iterable, Sequence, Union

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
_Terms = tuple[tuple[int, int], ...]  # the nonzero (t, c_t) of sum c_t x^t


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
# the cyclotomic polynomials


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, ascending degree.

    Phi_1 = x - 1.  For d > 1, Phi_d = prod_{e | d} (1 - x^e)^mobius(d/e),
    taken as a power series cut past degree euler_phi(d): multiplying by
    1 - x^e is one backward pass over the coefficients and dividing by it is
    one forward pass.  The result is monic of degree euler_phi(d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d == 1:
        return (-1, 1)
    phi = euler_phi(d)
    poly = [1] + [0] * phi
    for e in divisors(d):
        sign = mobius(d // e)
        if sign == 1:
            for i in range(phi, e - 1, -1):
                poly[i] -= poly[i - e]
        elif sign == -1:
            for i in range(e, phi + 1):
                poly[i] += poly[i - e]
    return tuple(poly)


# ---------------------------------------------------------------------------
# Z[zeta_d] on integer coefficient vectors


@lru_cache(maxsize=None)
def _field(order: int) -> tuple[int, _Terms]:
    """(phi(order), the terms below degree phi of the sparse, monic Phi_order)."""
    poly = cyclotomic_polynomial(order)
    return len(poly) - 1, tuple((t, c) for t, c in enumerate(poly[:-1]) if c)


def _cyc_reduce_int(work: list[int], phi: int, mod: _Terms) -> None:
    """Reduce `work` modulo Phi in place; entries from `phi` on become 0."""
    for i in range(len(work) - 1, phi - 1, -1):
        c = work[i]
        if c:
            base = i - phi
            for t, m in mod:
                work[base + t] -= c * m
            work[i] = 0


def _cyc_mul_int(
    a: Sequence[int], b: Sequence[int], phi: int, mod: _Terms
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
    a: Sequence[int], t: int, order: int, phi: int, mod: _Terms
) -> list[int]:
    """Image of the coefficient vector under zeta -> zeta^t."""
    raw = [0] * order
    for i, ai in enumerate(a):
        if ai:
            raw[(i * t) % order] += ai
    _cyc_reduce_int(raw, phi, mod)
    return raw[:phi]


def _cyc_adjoint_int(
    a: Sequence[int], order: int, phi: int, mod: _Terms
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
    fields (a rational element also equals and hashes like its Fraction),
    and an element is zero iff every entry of `num` is.  Products
    multiply the integer vectors and reduce them by the sparse terms of
    Phi_order, and the inverse is adj/N: adj is the product of the
    nontrivial conjugates and N = a * adj a nonzero integer.  Instances are
    immutable.
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
        # a rational element equals its Fraction, so it hashes like one
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.num, self.den))

    def __repr__(self) -> str:
        return f"Cyc{self.order}[{', '.join(str(c) for c in self.coeffs)}]"


# ---------------------------------------------------------------------------
# elimination cores


def _scale_to_int(row: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """(scale, ints): the lcm of the row's denominators, and the row times it."""
    scale = math.lcm(*(v.denominator for v in row))
    return scale, [v.numerator * (scale // v.denominator) for v in row]


def _rotation_closure_rank(rows: Sequence[Sequence[int]], shift: int) -> int:
    """dim of the smallest rotation-invariant subspace containing `rows`.

    The rotation takes a row r to r[shift:] + r[:shift].  The rows are
    queued, and each one that raises the rank of the basis joins it and
    queues its rotation.  The final span contains the given rows and the
    rotation of each row that spans it, so it is that smallest invariant
    subspace.  A matrix whose row at T(x) is its row at x rotated has that
    span for its row space, so one row per T-orbit gives its rank.

    Two exact eliminations keep the basis, chosen by the shape of the input.
    With rows at least 3/4 of the width, most rows lie in the span, and
    `_gauss_jordan_closure` tests each with one dot product per free column;
    its entries are minors of the rows that joined, and each of its
    divisions is exact.  With fewer rows, most rows come from rotations and
    raise the rank, and `_streaming_echelon` reduces each against its basis.
    Either way no row is read once every column has a pivot.

    The 3/4 is measured on the closures of one pass of each analysis
    workload of `perfbench`, each closure timed under both kernels (best of
    5, 2-vCPU VM).  With 3/4 <= rows/width < 1, Gauss-Jordan took 18.9 ms
    in all against 25.1 ms for the streaming echelon (`multiset(8,5)`'s
    0-mesic closure, 38 rows of width 40: 4.0 against 6.5 ms); with
    1/2 <= rows/width < 3/4 it took 37.0 against 34.3 ms, so the streaming
    echelon keeps those.
    """
    width = len(rows[0]) if rows else 0
    if 4 * len(rows) >= 3 * width:
        return _gauss_jordan_closure(rows, shift)[0]
    return len(_streaming_echelon(rows, width, lambda r: r[shift:] + r[:shift]))


def _streaming_echelon(
    rows: Iterable[Sequence[int]],
    width: int,
    step: Callable[[Sequence[int]], Sequence[int]] | None = None,
) -> dict[int, Sequence[int]]:
    """Fraction-free echelon basis of integer rows: {pivot: tail}.

    Each row is reduced against the basis in pivot order, and joins it at
    the first column without a pivot where it is nonzero, divided by its
    content.  A row being reduced is also divided by its content once its
    leading entry passes 512 bits; the basis is the same either way.  The
    tail of a basis row starts at its pivot, its first nonzero entry, so the
    sorted pivots are those of the reduced row echelon form.  With `step`
    set, each row that joins queues its image under that linear map, read
    after every given row, and the basis spans the smallest subspace that
    holds the rows and is closed under the map.  No row is read once every
    column has a pivot, and no input row is modified.
    """
    basis: dict[int, Sequence[int]] = {}
    queued: list[Sequence[int]] = []
    for row in chain(rows, queued) if width else ():
        c = 0
        while c < width and not row[c]:
            c += 1
        tail = row[c:]
        while c < width:
            pivot_row = basis.get(c)
            if pivot_row is None:
                g = math.gcd(*tail)
                basis[c] = [v // g for v in tail] if g > 1 else tail
                if len(basis) == width:
                    return basis
                if step is not None:
                    queued.append(step(row))
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
            # each step multiplies the row by a pivot, and past a few hundred
            # bits every later step pays for that size: divide out the content
            if tail and tail[0].bit_length() > 512:
                g = math.gcd(*tail)
                if g > 1:
                    tail = [v // g for v in tail]
    return basis


def _times_zeta(phi: int, mod: _Terms) -> Callable[[Sequence[int]], list[int]]:
    """x -> zeta*x on a row of elements of Q(zeta) laid out flat, phi
    coefficients per entry: each entry's coefficients move up by one, and
    the one that reaches degree phi is reduced modulo Phi."""

    def step(row: Sequence[int]) -> list[int]:
        out: list[int] = []
        for b in range(0, len(row), phi):
            entry = [0, *row[b : b + phi]]
            _cyc_reduce_int(entry, phi, mod)
            out += entry[:phi]
        return out

    return step


def _gauss_jordan_closure(
    rows: Sequence[Sequence[int]], shift: int
) -> tuple[int, list[int]]:
    """`_rotation_closure_rank` by fraction-free Gauss-Jordan elimination,
    and the indices of the given rows that generate the closure.

    The given rows are read in order, and while a row joins the basis its
    rotation r[shift:] + r[:shift] is read next.  So once a given row is
    done the span is the closure of the rows read so far, and a given row
    joins exactly when it lies outside the closure of the rows before it.
    Those rows generate the closure with none to spare; each row that joins
    reads one rotation, as when every rotation is queued after the given
    rows, so the order costs no extra test.

    The basis is kept in fraction-free reduced echelon form (Bareiss, in its
    Gauss-Jordan form): at its pivot columns p_i the basis rows B_i are D
    times the identity, where D is the determinant of the pivot block of the
    rows that joined.  Every entry is then a minor of those rows (Cramer's
    rule), so none grows past the Hadamard bound.  A row v lies in the span
    exactly when its residual D*v[f] - sum_i v[p_i]*B_i[f] is 0 at every
    free column f.  A nonzero residual r, 0 at the pivots, is the basis row
    of the next pivot f0, and D' = r[f0]; each old row b becomes
    (D'*b - b[f0]*r) / D, which is exact by Sylvester's identity, as its
    entries are again minors.  No row is read once every column has a pivot.
    """
    generators: list[int] = []
    pivots: list[int] = []
    det = 1
    # columns[j] is column free[j] of the basis; free lists the non-pivots
    free = list(range(len(rows[0]) if rows else 0))
    columns: list[list[int]] = [[] for _ in free]
    for i, row in enumerate(rows):
        image, joined = row, False
        while free:
            head = [image[p] for p in pivots]
            residual = [
                det * image[f] - sum(map(mul, head, column))
                for f, column in zip(free, columns)
            ]
            if not any(residual):
                break
            j = next(j for j, r in enumerate(residual) if r)
            new_det = residual.pop(j)
            pivots.append(free.pop(j))
            lead = columns.pop(j)
            for column, r in zip(columns, residual):
                column[:] = [(new_det * b - a * r) // det for b, a in zip(column, lead)]
                column.append(r)
            det = new_det
            image, joined = image[shift:] + image[:shift], True
        if joined:
            generators.append(i)
        if not free:
            break
    return len(pivots), generators


class ExactMatrix:
    """A dense immutable matrix over Q or over a single cyclotomic field.

    The rows have one store, `_integer_rows`, the only thing a matrix is
    built from: row i is ints / den, den > 0, where ints holds one integer
    per entry over Q, and over Q(zeta_order) the phi integer coefficients of
    each entry in turn, flat, as the elimination kernel reads them.  The
    kernels and the cofactor determinant read only the store.  `entries`, the
    rows as Fraction or CycNumber scalars in lowest terms, is a view of it,
    cut from the store when first read; `from_rows` builds the store from
    scalars and keeps them as that view.
    """

    def __init__(self, rows: list[tuple[int, list[int]]], cols: int, order: int | None) -> None:
        """The matrix with row i = rows[i][1] / rows[i][0], over Q(zeta_order) or Q."""
        self.__dict__.update(_integer_rows=rows, rows=len(rows), cols=cols, _order=order)

    @cached_property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rows as scalars in lowest terms, from the store when first read."""
        return tuple(tuple(self._scalars(r, s)) for s, r in self._integer_rows)

    def _scalars(self, ints: Sequence[int], den: int = 1) -> list[Scalar]:
        """The store row ints / den as scalars: over Q(zeta), phi coefficients
        per CycNumber."""
        order = self._order
        if order is None:
            return [Fraction(v, den) for v in ints]
        phi = _field(order)[0]
        return [_cyc(order, ints[i : i + phi], den) for i in range(0, len(ints), phi)]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "ExactMatrix":
        """The matrix of these scalars, its store built once, row i scaled by
        the lcm of its denominators; the scalars, coerced, are its `entries`."""
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        orders = {v.order for r in rows for v in r if isinstance(v, CycNumber)}
        if len(orders) > 1:
            raise ValueError("mixed cyclotomic orders in one matrix")
        order = orders.pop() if orders else None
        if order is None:
            entries = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in r) for r in rows)
            store = [_scale_to_int(row) for row in entries]
        else:
            entries = tuple(
                tuple(v if isinstance(v, CycNumber) else CycNumber.from_rational(v, order) for v in r)
                for r in rows
            )
            store = []
            for row in entries:
                scale = math.lcm(*(v.den for v in row))
                store.append((scale, [c * (scale // v.den) for v in row for c in v.num]))
        matrix = cls(store, width, order)
        matrix.__dict__["entries"] = entries
        return matrix

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @property
    def is_cyclotomic(self) -> bool:
        return self.cols > 0 and self._order is not None

    def _zero_scalar(self) -> Scalar:
        return CycNumber.zero(self._order) if self.is_cyclotomic else Fraction(0)

    def _one_scalar(self) -> Scalar:
        return CycNumber.one(self._order) if self.is_cyclotomic else Fraction(1)

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_shape(other)
        return ExactMatrix.from_rows(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
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
                out.append(row)
            return ExactMatrix.from_rows(out)
        if isinstance(other, (int, Fraction, CycNumber)):
            return ExactMatrix.from_rows([[v * other for v in r] for r in self.entries])
        return NotImplemented

    __rmul__ = __mul__  # both fields are commutative

    def __pow__(self, exponent: int) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        one, zero = self._one_scalar(), self._zero_scalar()
        out = ExactMatrix.from_rows(
            [[one if i == j else zero for j in range(self.cols)] for i in range(self.rows)]
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

    def _echelon(self) -> tuple[dict[int, Sequence[int]], int, list[int]]:
        """The `_streaming_echelon` basis of the store, phi, its integers per
        entry (1 over Q), and the pivot columns of the matrix.  Over Q(zeta)
        the basis spans the closure of the flat rows under x -> zeta*x, the
        row space over Q(zeta) read over Q.  That is zeta-invariant, so each
        pivot block holds phi pivots, and the row with pivot c*phi, cut into
        entries, is a row over Q(zeta) with pivot c.  Pivots and the
        nullspace basis normalised at free columns depend only on the row
        space."""
        phi, mod = _field(self._order) if self.is_cyclotomic else (1, ())
        step = _times_zeta(phi, mod) if phi > 1 else None
        basis = _streaming_echelon((r for _, r in self._integer_rows), self.cols * phi, step)
        return basis, phi, sorted(c // phi for c in basis if c % phi == 0)

    def rank(self) -> int:
        """Exact rank over the matrix's scalar field.

        A rank is at most the number of nonzero rows and the number of
        columns, so with at most one of either it is read off the store
        (a row is zero when all its integers are), with no elimination.
        """
        nonzero = (r for _, r in self._integer_rows if any(r))
        if next(nonzero, None) is None:
            return 0
        if self.cols == 1 or next(nonzero, None) is None:
            return 1
        return len(self._echelon()[2])

    def column_basis(self) -> list[int]:
        """Indices of the greedy left-to-right maximal independent column set."""
        return self._echelon()[2]

    def nullspace_basis(self) -> list[tuple[Scalar, ...]]:
        """cols - rank linearly independent vectors v with self * v = 0."""
        basis, phi, pivot_cols = self._echelon()
        ncols = self.cols
        # the echelon row of each pivot, zero-padded: ints over Q, which act
        # on Fractions as they are, and CycNumbers over Q(zeta)
        ech = [[0] * (c * phi) + list(basis[c * phi]) for c in pivot_cols]
        if self.is_cyclotomic:
            ech = [self._scalars(r) for r in ech]
        zero, one = self._zero_scalar(), self._one_scalar()
        pivset = set(pivot_cols)
        out: list[tuple[Scalar, ...]] = []
        for fc in (c for c in range(ncols) if c not in pivset):
            v: list[Scalar] = [zero] * ncols
            v[fc] = one
            for row, pc in zip(reversed(ech), reversed(pivot_cols)):
                acc = zero
                for c2 in range(pc + 1, ncols):
                    if v[c2]:
                        acc = acc + row[c2] * v[c2]
                v[pc] = -acc / row[pc] if acc else zero
            out.append(tuple(v))
        return out

    def det_cofactor(self) -> Scalar:
        """Determinant by cofactor expansion (the brute-force route).

        The expansion is memoised on the set of columns left.  A rational
        matrix expands its integer rows, row i scaled by s_i, the lcm of its
        denominators: det(diag(s) * A) = prod(s_i) * det(A), so the result is
        one Fraction, the integer determinant over prod(s_i).  A cyclotomic
        matrix expands the same store, each entry's phi coefficients read as
        an element of Z[zeta], and divides by prod(s_i) in the field.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        scaled = self._integer_rows
        ent = [row for _, row in scaled]
        zero, one = 0, 1
        if self.is_cyclotomic:
            ent = [self._scalars(row) for row in ent]
            zero, one = self._zero_scalar(), self._one_scalar()
        memo: dict[int, Scalar | int] = {}

        def minor(mask: int) -> Scalar | int:
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

        return minor((1 << n) - 1) * Fraction(1, math.prod(s for s, _ in scaled))
