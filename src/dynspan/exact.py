"""Exact linear algebra over the rationals and over cyclotomic fields.

Scalars are either `fractions.Fraction` or `CycNumber`, an element of the
field Q(zeta_d).  A `CycNumber` is an integer coefficient vector over a
common positive denominator, in lowest terms: the vector is a polynomial in
zeta_d reduced modulo the d-th cyclotomic polynomial.  Matrices are dense
and immutable, carry a single scalar kind and are built from one store,
their rows as integers over positive denominators: one integer per entry
over Q, and over Q(zeta_d) of degree phi the phi coefficients of each entry
laid out flat.  Scalars are a view cut from that store when they are read.
Rank and column-basis computations are fraction-free on the store, in one
streaming echelon over Z that reduces a row against its basis in pivot order
and stops once every column has a pivot.  Over Q(zeta_d) it ranks the flat
rows as they are stored and closes the basis under x -> x/zeta, which moves
each coefficient down one degree: the result is the row space over
Q(zeta_d) read over Q, of dimension phi times the rank (restriction of
scalars; zeta has finite order, so a space closed under 1/zeta is closed
under zeta).  With at most one nonzero row or one column, the rank is read
off the store.  Results are deterministic across runs and never touch
floating point.  The cofactor determinant
expands the same integer rows, row i scaled by s_i, the lcm of its
denominators, and divides by the product of the s_i once.  Rank, column
basis and determinant are all that a matrix offers: the fixed integer
matrices of the paper's examples are tuples of integer rows, multiplied by
`_int_product`.

The rank of a closure, the smallest subspace that contains some integer
rows and is closed under a linear step of finite order, such as rotating
their entries by a fixed shift, has two exact kernels, chosen by the shape
of the input.  Both read the given rows in order, each row that joins
followed by the image of what it adds while those join, so both name the
same given rows as generating the closure: each outside the closure of
those before it.  With rows at least 3/4 of the columns, a fraction-free
Gauss-Jordan basis tests each row with one dot product per column that has
no pivot: every entry of the basis is a minor of the rows that joined it,
so the sizes stay under the Hadamard bound, and every division in an
update is exact by Sylvester's identity.  On a tall tail those products
are packed into one annihilator, an integer per column, whose dot product
with a row is 0 exactly when the row lies in the span.  With fewer rows,
most rows come from images and join the basis, and the streaming echelon
reduces each against it.  There a row that joins at pivot c is followed by
the image of its basis row; under the left rotation its pivot, if c is at
least the shift, moves to c - shift, so it is reduced only against the
pivots from there on; over Q(zeta) the image under 1/zeta begins one
column earlier, or, from the start of an entry, no earlier than that.
Both stop reading rows once every column has a pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import lshift, mul
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
_Step = Callable[[Sequence[int]], Sequence[int]] | None  # a closure's map; None: identity


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending, in a new list."""
    return list(_divisors(n))


# the Moebius inversion of a spectrum reads these for every pair d | e | n,
# so each is found once per argument (bounded: a tuple of at most 240
# divisors for any n up to 10**6)
@lru_cache(maxsize=1024)
def _divisors(n: int) -> tuple[int, ...]:
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
    return (*small, *large[::-1])


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


@lru_cache(maxsize=1024)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = 1
    for p, e in _factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


@lru_cache(maxsize=1024)
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
    Phi_order.  Elements add, subtract and multiply, with no division.
    Instances are immutable.
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


def _int_product(rows: Sequence[Sequence[int]], other: Sequence) -> tuple:
    """The product of integer rows with a vector of numbers, or with integer
    rows (a sequence of rows), as a tuple of numbers or of row tuples."""
    if other and isinstance(other[0], Sequence):
        columns = tuple(zip(*other))
        return tuple(_int_product(columns, row) for row in rows)
    return tuple(sum(map(mul, row, other)) for row in rows)


def _rotation_closure_rank(
    rows: Sequence[Sequence[int]], shift: int
) -> tuple[int, list[int]]:
    """(dim, generators) of the smallest rotation-invariant subspace that
    contains `rows`, the rotation taking r to r[shift:] + r[:shift]: the
    `_closure_rank` of that linear map.  A matrix whose row at T(x) is its
    row at x rotated has that closure for its row space, so one row per
    T-orbit gives its rank.  A shift by a multiple of the width, as in every
    closure of f(1), is the identity: no row is followed by its image."""
    width = len(rows[0]) if rows else 0
    rotate = (lambda r: r[shift:] + r[:shift]) if width and shift % width else None
    return _closure_rank(rows, rotate)


def _closure_rank(rows: Sequence[Sequence[int]], step: _Step) -> tuple[int, list[int]]:
    """(dim, generators) of the smallest subspace that contains `rows` and
    is closed under the linear map `step`, of finite order.  Each given row
    that raises the rank is followed by the images of the vectors it adds
    while they join (see the module notes), so a given row joins exactly
    when it lies outside the closure of the rows before it, and both kernels
    name the same generators, with none to spare.

    With rows at least 3/4 of the width, most rows lie in the span, and
    `_gauss_jordan_closure` tests each with its packed annihilator or one
    dot product per free column; with fewer, most rows come from images and
    raise the rank, and `_streaming_echelon` reduces each against its basis.
    Timed on every closure of one pass (seed 1) of each analysis workload of
    `perfbench` (best of 5, 2-vCPU VM), Gauss-Jordan against the streaming
    echelon took 19.7 against 31.0 ms with rows >= width, 5.2 against 5.5 ms
    from 7/8 to 1, 4.6 against 4.3 ms from 3/4 to 7/8, 22.2 against 19.0 ms
    from 1/2 to 3/4, and 127 against 51 ms below: a rule at 7/8 would save
    0.3 ms over three passes, which no pass shows, so it stays at 3/4.
    """
    width = len(rows[0]) if rows else 0
    if 4 * len(rows) >= 3 * width:
        return _gauss_jordan_closure(rows, step)
    basis, generators = _streaming_echelon(rows, width, step)
    return len(basis), generators


def _streaming_echelon(
    rows: Iterable[Sequence[int]], width: int, step: _Step = None
) -> tuple[dict[int, Sequence[int]], list[int]]:
    """Fraction-free echelon basis of integer rows, {pivot: tail}, and the
    indices of the given rows that joined it.

    Each row is reduced against the basis in pivot order, and joins it at
    the first column without a pivot where it is nonzero, divided by its
    content; a row being reduced is also divided by its content once its
    leading entry passes 512 bits.  The tail of a basis row starts at its
    pivot, so the sorted pivots are those of the reduced row echelon form.
    With `step` set, a row that joins at pivot c is followed, before the
    next given row, by the image under that linear map of its basis row
    zero-padded to full width ([0]*c + basis[c]), and so on while the images
    join.  Once a given row is done the span holds the image of each of its
    basis rows, so it is the closure under the map of the rows read so far.
    An image that keeps the padding's leading zeros, as the left rotation
    and x -> x/zeta do but for a shift or one column, is reduced only
    against the pivots from about c on.  No row is read once every column
    has a pivot, and no input row is modified.
    """
    basis: dict[int, Sequence[int]] = {}
    generators: list[int] = []
    for i, row in enumerate(rows) if width else ():
        while row is not None:
            c = 0
            while c < width and not row[c]:
                c += 1
            tail, row = row[c:], None
            while c < width:
                pivot_row = basis.get(c)
                if pivot_row is None:
                    g = math.gcd(*tail)
                    basis[c] = tail = [v // g for v in tail] if g > 1 else tail
                    if generators[-1:] != [i]:
                        generators.append(i)
                    if len(basis) == width:
                        return basis, generators
                    if step is not None:
                        row = step([0] * c + [*tail])
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
                # each step multiplies the row by a pivot: past a few hundred
                # bits, divide out the content before later steps pay for it
                if tail and tail[0].bit_length() > 512:
                    g = math.gcd(*tail)
                    if g > 1:
                        tail = [v // g for v in tail]
    return basis, generators


def _times_zeta_inverse(phi: int, mod: _Terms) -> Callable[[Sequence[int]], list[int]]:
    """x -> x/zeta on a row of elements of Q(zeta) laid out flat, phi
    coefficients per entry: each entry's coefficients move down by one, and
    a nonzero constant coefficient a wraps as a/zeta.  With Phi = c_0 + c_1 x
    + ... + x^phi, 1/zeta = -(c_1 + c_2 zeta + ... + zeta^(phi-1)) / c_0, and
    c_0 = Phi(0) is 1 for every order past 1 (-1 for order 1), so the
    division is exact.  So an image keeps the row's
    leading zeros: it begins one column earlier, or, from a pivot at the
    start of an entry, no earlier than that start."""
    (_, c0), *terms = mod
    wrap = [(t - 1, -c // c0) for t, c in terms] + [(phi - 1, -1 // c0)]

    def step(row: Sequence[int]) -> list[int]:
        out = [*row[1:], 0]
        for b in range(0, len(row), phi):
            a = row[b]
            out[b + phi - 1] = 0
            if a:
                for i, w in wrap:
                    out[b + i] += a * w
        return out

    return step


def _gauss_jordan_closure(rows: Sequence[Sequence[int]], step: _Step) -> tuple[int, list[int]]:
    """`_closure_rank` by fraction-free Gauss-Jordan elimination.  While a
    row joins the basis its image under `step` is read next, as in
    `_streaming_echelon`, unless `step` is None, the identity.

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

    A given row is first tested against the packed annihilator `a`, if one
    is kept (Kronecker substitution): a[f_j] = D * 2^(b*j) at the j-th free
    column and a[p_i] = -sum_j B_i[f_j] * 2^(b*j), so that v.a = sum_j
    2^(b*j) * res_j(v), res_j the residual at f_j.  No |res_j| of a row
    with every |entry| at most `cap` exceeds R = cap*(|D| + max_j sum_i
    |B_i[f_j]|), and 2^b > R, so for such a row v.a = 0 exactly when every
    res_j is 0: at the top nonzero res_J the digits below sum to at most
    R*(2^(b*J) - 1)/(2^b - 1) < 2^(b*J) <= |2^(b*J) * res_J|.  A row in the
    span then costs one dot product of the width and its min and max; any
    other row is reduced as above.  A join drops `a`; it is built, with cap
    2^8 times the row's largest |entry|, when a given row is found in the
    span while at least 4 columns are free and more rows are left than the
    width: at most one per free column can join, so more than the rank of
    them lie in the span, which repays a build of about two residuals.
    """
    generators: list[int] = []
    pivots: list[int] = []
    det = 1
    # columns[j] is column free[j] of the basis; free lists the non-pivots
    width = len(rows[0]) if rows else 0
    free = list(range(width))
    columns: list[list[int]] = [[] for _ in free]
    packed: list[int] | None = None
    for i, row in enumerate(rows):
        if packed is not None and not sum(map(mul, row, packed)):
            if -cap <= min(row) and max(row) <= cap:
                continue
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
            joined = True
            if step is None:
                break
            image = step(image)
        if joined:
            generators.append(i)
            packed = None
            if not free:
                break
        elif len(rows) - i - 1 > width and len(free) >= 4:
            cap = max(max(row), -min(row), 1) << 8
            b = (cap * (abs(det) + max(sum(map(abs, c)) for c in columns))).bit_length()
            shifts = range(0, b * len(free), b)
            packed = [0] * width
            for f, s in zip(free, shifts):
                packed[f] = det << s
            for p, entries in zip(pivots, zip(*columns)):
                packed[p] = -sum(map(lshift, entries, shifts))
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

    @property
    def is_cyclotomic(self) -> bool:
        return self.cols > 0 and self._order is not None

    # -- elimination-backed queries ------------------------------------

    def _echelon(self) -> list[int]:
        """The pivot columns of the `_streaming_echelon` basis of the store.
        Over Q(zeta) the basis spans the closure of the flat rows under
        x -> x/zeta (`_times_zeta_inverse`), the row space over Q(zeta) read
        over Q, as zeta has finite order.  That is zeta-invariant, so each
        pivot block holds phi pivots, and the row with pivot c*phi, cut into
        entries, is a row over Q(zeta) with pivot c.  The pivots depend only
        on the row space."""
        phi, mod = _field(self._order) if self.is_cyclotomic else (1, ())
        step = _times_zeta_inverse(phi, mod) if phi > 1 else None
        basis = _streaming_echelon((r for _, r in self._integer_rows), self.cols * phi, step)[0]
        return sorted(c // phi for c in basis if c % phi == 0)

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
        return len(self._echelon())

    def column_basis(self) -> list[int]:
        """Indices of the greedy left-to-right maximal independent column set."""
        return self._echelon()

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
            zero, one = CycNumber.zero(self._order), CycNumber.one(self._order)
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
