"""Exact linear algebra over the rationals and over cyclotomic fields.

Scalars are either `fractions.Fraction` or `CycNumber`, an element of the
field Q(zeta_d).  A `CycNumber` is an integer coefficient vector over a
common positive denominator, in lowest terms: the vector is a polynomial in
zeta_d reduced modulo the d-th cyclotomic polynomial.  Field arithmetic and
the Z[zeta_d] echelon kernel share the same integer helpers.  Matrices are
dense and immutable, carry a single scalar kind and store their rows once,
as integer rows over positive denominators: integers over Q, integer
coefficient vectors over Q(zeta_d).  Scalars are derived from that store
when they are read (and the store from the scalars of a matrix built from
them).  Rank, column-basis and nullspace computations are fraction-free on
the store: a streaming echelon over Z and one over Z[zeta_d]; each reduces a
row against its basis in pivot order and stops once every column has a
pivot.  Results are deterministic across runs and never touch floating
point.  The cofactor determinant expands the same integer rows, row i scaled
by s_i, the lcm of its denominators, and divides by the product of the s_i
once.

The rank of a rotation closure, the smallest subspace that contains some
integer rows and is closed under rotating their entries by a fixed shift, has
two exact kernels, chosen by the shape of the input.  With at least as many
rows as columns, a fraction-free Gauss-Jordan basis tests each row with one
dot product per column that has no pivot: every entry of the basis is a minor
of the rows that joined it, so the sizes stay under the Hadamard bound, and
every division in an update is exact by Sylvester's identity.  With fewer
rows, most rows come from rotations and join the basis, and the streaming
echelon over Z reduces each against it, queueing the rotation of each row
that joins.  Both stop reading rows once every column has a pivot.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence, Union

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
    run on the same integer helpers as the Z[zeta] echelon kernel, and the
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
    With at least as many rows as columns, most rows lie in the span, and
    `_gauss_jordan_closure_rank` tests each with one dot product per free
    column; its entries are minors of the rows that joined, and each of its
    divisions is exact.  With fewer rows, most rows come from rotations and
    raise the rank, and `_streaming_echelon` reduces each against its basis.
    Either way no row is read once every column has a pivot.
    """
    width = len(rows[0]) if rows else 0
    if len(rows) >= width:
        return _gauss_jordan_closure_rank(rows, shift, width)
    return len(_streaming_echelon(rows, width, shift))


def _streaming_echelon(
    rows: Iterable[Sequence[int]], width: int, shift: int | None = None
) -> dict[int, Sequence[int]]:
    """Fraction-free echelon basis of integer rows: {pivot: tail}.

    Each row is reduced against the basis in pivot order, and joins it at
    the first column without a pivot where it is nonzero, divided by its
    content.  The tail of a basis row starts at its pivot, its first nonzero
    entry, so the sorted pivots are those of the reduced row echelon form.
    With `shift` set, each row that joins queues its rotation by `shift`
    entries, and the basis spans the rotation closure of the rows.  No row
    is reduced once every column has a pivot, and no input row is modified.
    """
    basis: dict[int, Sequence[int]] = {}
    queue = deque(rows)
    while queue and len(basis) < width:
        row = queue.popleft()
        c = 0
        while c < width and not row[c]:
            c += 1
        tail = row[c:]
        while c < width:
            pivot_row = basis.get(c)
            if pivot_row is None:
                g = math.gcd(*tail)
                basis[c] = [v // g for v in tail] if g > 1 else tail
                if shift is not None:
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
    return basis


def _gauss_jordan_closure_rank(
    rows: Sequence[Sequence[int]], shift: int, width: int
) -> int:
    """`_rotation_closure_rank` by fraction-free Gauss-Jordan elimination.

    The basis is kept in fraction-free reduced echelon form (Bareiss, in its
    Gauss-Jordan form): at its pivot columns p_i the basis rows B_i are D
    times the identity, where D is the determinant of the pivot block of the
    rows that joined.  Every entry is then a minor of those rows (Cramer's
    rule), so none grows past the Hadamard bound.  A row v lies in the span
    exactly when its residual D*v[f] - sum_i v[p_i]*B_i[f] is 0 at every
    free column f.  A nonzero residual r, 0 at the pivots, is the basis row
    of the next pivot f0, and D' = r[f0]; each old row b becomes
    (D'*b - b[f0]*r) / D, which is exact by Sylvester's identity, as its
    entries are again minors.
    """
    pivots: list[int] = []
    det = 1
    # columns[j] is column free[j] of the basis; free lists the non-pivots
    free = list(range(width))
    columns: list[list[int]] = [[] for _ in free]
    queue = deque(rows)
    while queue and free:
        row = queue.popleft()
        head = [row[p] for p in pivots]
        residual = [
            det * row[f] - sum(map(mul, head, column))
            for f, column in zip(free, columns)
        ]
        if not any(residual):
            continue
        j = next(j for j, r in enumerate(residual) if r)
        new_det = residual.pop(j)
        pivots.append(free.pop(j))
        lead = columns.pop(j)
        for column, r in zip(columns, residual):
            column[:] = [(new_det * b - a * r) // det for b, a in zip(column, lead)]
            column.append(r)
        det = new_det
        queue.append(row[shift:] + row[:shift])
    return len(pivots)


def _cyc_echelon(
    rows: Iterable[list[list[int]]], ncols: int, order: int
) -> tuple[list[list[list[int]]], list[int]]:
    """Streaming fraction-free echelon form over Z[zeta_order].

    Like `_streaming_echelon`: each row is reduced against the basis in
    pivot order, divided by its content before every step, and joins it at
    the first column without a pivot where it is nonzero.  A basis row is
    used times the adjugate of its pivot, made when a row first reduces
    against it, so its pivot is a rational integer N and clearing an entry a
    costs one product in Z[zeta] per entry: N'*row - a'*basis_row, with N',
    a' divided by gcd(N, a).  No row is read once every column has a pivot.
    Returns the basis rows, sorted by pivot and zero-padded, and the pivots.
    """
    phi, mod = _field(order)
    # basis[c] is the tail, from column c, of the basis row with pivot c, and
    # scaled[c] is (N, that tail times the adjugate of its pivot)
    basis: dict[int, list[list[int]]] = {}
    scaled: dict[int, tuple[int, list[list[int]]]] = {}
    for tail in rows:
        c = 0
        while any(map(any, tail)):
            g = math.gcd(*(v for e in tail for v in e))
            skip = next(j for j, e in enumerate(tail) if any(e))
            tail, c = [[v // g for v in e] for e in tail[skip:]], c + skip
            if c not in basis:
                basis[c] = tail
                break
            if c not in scaled:
                pivot_row = basis[c]
                if any(pivot_row[0][1:]):
                    adj = _cyc_adjoint_int(pivot_row[0], order, phi, mod)[0]
                    pivot_row = [_cyc_mul_int(e, adj, phi, mod) for e in pivot_row]
                    g = math.gcd(*(v for e in pivot_row for v in e))
                    pivot_row = [[v // g for v in e] for e in pivot_row]
                scaled[c] = pivot_row[0][0], pivot_row
            norm, pivot_row = scaled[c]
            g = math.gcd(norm, *tail[0])
            n, a = norm // g, [v // g for v in tail[0]]
            cyclic = any(a[1:])
            step = []
            for v, w in zip(tail[1:], pivot_row[1:]):
                aw = _cyc_mul_int(a, w, phi, mod) if cyclic else [a[0] * y for y in w]
                step.append([n * x - y for x, y in zip(v, aw)])
            tail, c = step, c + 1
        if len(basis) == ncols:
            break
    pivots = sorted(basis)
    return [[[0] * phi] * c + basis[c] for c in pivots], pivots


class ExactMatrix:
    """A dense immutable matrix over Q or over a single cyclotomic field.

    The rows have one store, `_integer_rows`: row i is ints / den, den > 0,
    where ints holds integers (over Q) or integer coefficient vectors (over
    Q(zeta_order)).  The elimination kernels and the cofactor determinant
    read only the store.  `entries`, the rows as Fraction or CycNumber
    scalars in lowest terms, is a second view of the same rows.  A matrix
    made from scalars (`from_rows`, the constructor) derives its store on the
    first kernel call; one made from integer rows (`_from_integer_rows`)
    builds its scalars only when they are read.  Each view is built at most
    once, and the shape and the field never need the scalars.
    """

    def __init__(self, entries: tuple[tuple[Scalar, ...], ...]) -> None:
        first = entries[0] if entries else ()
        order = first[0].order if first and isinstance(first[0], CycNumber) else None
        self.__dict__.update(entries=entries, rows=len(entries), cols=len(first), _order=order)

    @classmethod
    def _from_integer_rows(
        cls, rows: list[tuple[int, list]], cols: int, order: int | None
    ) -> "ExactMatrix":
        """The matrix with row i = rows[i][1] / rows[i][0], over Q(zeta_order) or Q."""
        obj = object.__new__(cls)
        obj.__dict__.update(_integer_rows=rows, rows=len(rows), cols=cols, _order=order)
        return obj

    @cached_property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """The rows as scalars in lowest terms, from the store when first read."""
        order = self._order
        if order is None:
            return tuple(tuple(Fraction(v, s) for v in r) for s, r in self._integer_rows)
        return tuple(tuple(_cyc(order, v, s) for v in r) for s, r in self._integer_rows)

    @cached_property
    def _integer_rows(self) -> list[tuple[int, list]]:
        """The store, from `entries`: each row scaled by the lcm of its denominators."""
        if not self.is_cyclotomic:
            return [_scale_to_int(row) for row in self.entries]
        out = []
        for row in self.entries:
            scale = math.lcm(*(v.den for v in row))
            out.append((scale, [[c * (scale // v.den) for c in v.num] for v in row]))
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[object]]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        orders = {v.order for r in rows for v in r if isinstance(v, CycNumber)}
        if len(orders) > 1:
            raise ValueError("mixed cyclotomic orders in one matrix")
        if orders:
            zero = CycNumber.zero(orders.pop())
            rows = [[v if isinstance(v, CycNumber) else zero + Fraction(v) for v in r] for r in rows]
            return cls(tuple(map(tuple, rows)))
        return cls(tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in r) for r in rows))

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

    __rmul__ = __mul__  # both fields are commutative

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
        """Echelon rows, pivot columns, and a lift of raw entries to the field.

        `_streaming_echelon` over Z or `_cyc_echelon` over Z[zeta], on the
        integer rows of the store; the rows are sorted by pivot and
        zero-padded.  Pivots and the nullspace basis normalised at free
        columns depend only on the row space."""
        ints = (r for _, r in self._integer_rows)
        if self.is_cyclotomic:
            order = self._order
            rows, pivots = _cyc_echelon(ints, self.cols, order)

            def lift(raw: Sequence[int]) -> Scalar:
                return _cyc(order, raw, 1)

        else:
            basis = _streaming_echelon(ints, self.cols)
            pivots = sorted(basis)
            rows = [[0] * c + basis[c] for c in pivots]
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
        """Determinant by cofactor expansion (the brute-force route).

        The expansion is memoised on the set of columns left.  A rational
        matrix expands its integer rows, row i scaled by s_i, the lcm of its
        denominators: det(diag(s) * A) = prod(s_i) * det(A), so the result is
        one Fraction, the integer determinant over prod(s_i).  A cyclotomic
        matrix expands the same store, each coefficient vector read as an
        element of Z[zeta], and divides by prod(s_i) in the field.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant needs a square matrix")
        scaled = self._integer_rows
        ent = [row for _, row in scaled]
        zero, one = 0, 1
        if self.is_cyclotomic:
            ent = [[_cyc(self._order, v, 1) for v in row] for row in ent]
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
