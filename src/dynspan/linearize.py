"""Linearization of a finite periodic system with statistics.

Builds the presenting matrix of the time-evolution operator U (the map
f -> f o T on the span V of the shifted statistics), computes the
multiplicity of each n-th root of unity as an eigenvalue of U, extracts
invariant and 0-mesic data, detects homomesies, and produces coboundary
witnesses.  Functions on V are represented extensionally, as length-|X|
value vectors.

Each exact object is built once per system and kept in the system's private
memo (`FiniteSystem` lists which module fills which key).  Repeated public
calls still validate the system, but share that work.  dim V is f(n), the
rank of the presenting matrix that the galois route computes.

A `PresentingMatrix` is a selection of rows: all of X, one row per T-orbit
(`_orbit_quotient`), or the orbits among those whose rows generate them all
under rotation (`_orbit_selection`).  Its rows read one integer statistics grid per system
(`_integer_stats`): every statistic times L, the lcm of all their
denominators.  It builds its rows and each T^d block sum of them once, and
the orbit-start selections keep them in the system's memo, so the galois
table, `zeta_matrix` and `invariant_matrix` of a report share each sum.  The
stages of a report sum those integers, not Fractions: orbit averages, the
invariance test, the block sums and the differences of M - M'.  A Fraction
is built only for a value that is returned, from an integer sum over L.
`zeta_matrix` and `shifted_difference` build their `ExactMatrix` from its
integer rows, their sums over L (a Q(zeta_d) row flat, phi coefficients per
entry), so the cyclotomic and 0-mesic ranks build no CycNumber and no
Fraction.

No rank here reads a row for every element of X.  V is closed under
composition with T, so the row of the presenting matrix at T(x) is its row at
x with the column blocks rotated by one; so are the rows of each
T^d-invariant matrix and of M - M'.  The row space of such a matrix is the
smallest rotation-invariant subspace that contains one row per T-orbit, and
`_rotation_closure_rank` finds its dimension from those rows alone, in
integers.  When the rows are at least 3/4 of the columns, most rows lie in
the span, and each is tested against a fraction-free Gauss-Jordan basis with
one dot product per column without a pivot; otherwise the rows, most of them
rotations, are reduced in a streaming echelon.  The weighted block sums of
the cyclotomic route need no closure: their row at T(x) is a root of unity
times their row at x.

Each rank of a report is the rank of a linear image of the orbit-start rows
that respects the rotation, so it depends only on their rotation closure, not
on the number of orbits.  A tall system has more orbits than m*k columns, m
the minimal period, so at least its surplus orbit rows are redundant.  There
the top closure of the galois route, f(m) = dim V, reads every orbit row, and
the orbits whose rows lie outside the closure of the orbits before them are
kept once per system (`_orbit_selection`).  Every other rank reads only
those: the galois closures for e < m, the 0-mesic closure (the
`shifted_difference` of the kept rows), every `zeta_matrix` rank of the
cyclotomic route and the column choice of `invariant_basis`, whose values
still come from the block sums of every orbit.  dim V alone still reads
every orbit row, so the routes still check each other: a selection that lost
a row would give sum phi(d)*r_d < f(n), and `--method both` would find the
spectra disagree.  `chain(8,6)` keeps one orbit of 246 and `multiset(8,5)`
six of 99.

Neither route ranks once per exponent.  The statistics are rational, so the
multiplicity of zeta^j depends only on gcd(j, n) (see `Spectrum`), and each
route computes at most one number per divisor d of n.  On a non-minimal
period neither ranks past what the orbits carry: the galois route closes
only for d | m, the minimal period, and the cyclotomic route only for d
dividing some orbit length.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact import (
    ExactMatrix,
    _cyc_reduce_int,
    _field,
    _gauss_jordan_closure,
    _rotation_closure_rank,
    _scale_to_int,
    divisors,
    euler_phi,
    mobius,
)
from .system import FiniteSystem, minimal_period, orbits, validate

__all__ = [
    "FlatnessReport",
    "HomomesyReport",
    "PresentingMatrix",
    "Spectrum",
    "StatisticVerdict",
    "coboundary_witness",
    "dynamical_dimension",
    "extend_products",
    "flatness_report",
    "homomesy_value",
    "invariant_basis",
    "invariant_matrix",
    "presenting_matrix",
    "shifted_difference",
    "spectrum",
    "statistic_report",
    "zero_mesic_dimension",
    "zero_mesic_original_combos",
    "zeta_matrix",
]


def _require_valid(system: FiniteSystem) -> None:
    problems = validate(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))


def _power_tables(perm: tuple[int, ...], count: int) -> list[list[int]]:
    """tables[j][x] = index of T^j(x), for j = 0..count-1."""
    tables = [list(range(len(perm)))]
    for _ in range(1, count):
        tables.append([perm[x] for x in tables[-1]])
    return tables


@dataclass(frozen=True)
class PresentingMatrix:
    """A selection of rows of the |X| x (k*n) matrix of the shifted statistics.

    Column j*k + i holds the function x -> g_{i+1}(T^j x); block 0 is the
    stats grid itself and block j+1 is block j composed with T.  `elements`
    is all of X (`presenting_matrix`), the first element of each T-orbit
    (`_orbit_quotient`), or any selection a caller builds.  The matrix has
    one representation, its integer `rows`.  They and each T^d block sum are
    built once per instance, in `_sums`, keyed by d (d = n is the rows); the
    orbit-start instances of one system share the `_sums` in its memo.
    """

    system: FiniteSystem
    elements: Sequence[int]
    _sums: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.system.period

    @property
    def k(self) -> int:
        return self.system.num_stats

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The selected rows over Z: entry j*k + i is g_i(T^j x) * L."""
        return self.block_sums(self.n)

    def block_sums(self, d: int) -> list[Sequence[int]]:
        """Rows of the T^d-invariant matrix at `elements`, for d | n: entry
        r*k + i of the row at x sums g_{i+1}(T^(r + m*d) x) * L over m < n/d.
        d = 1 gives the invariant matrix; d = n gives the rows.  An empty
        selection has no matrix, and raises ValueError."""
        sums = self._sums.get(d)
        if sums is None:
            if not self.elements:
                raise ValueError("a presenting matrix needs at least one element")
            if d == self.n:
                sums = _presenting_rows(self.system, self.elements)
            else:
                w = d * self.k
                sums = [[sum(row[c::w]) for c in range(w)] for row in self.rows]
            self._sums[d] = sums
        return sums


def _presenting_rows(system: FiniteSystem, elements: Sequence[int]) -> list[tuple]:
    """Integer rows of the presenting matrix at `elements`.

    The row at x concatenates the rows of x, T(x), ..., T^(n-1)(x) of the
    integer statistics grid (`_integer_stats`), each statistic times L.
    Scaling the matrix by a nonzero constant changes no rank of any block-sum
    matrix, and a value read from it is divided by L once.
    """
    grid = _integer_stats(system)[1]
    n, perm = system.period, system.perm
    rows = []
    for x in elements:
        row: list = []
        for _ in range(n):
            row += grid[x]
            x = perm[x]
        rows.append(tuple(row))
    return rows


def presenting_matrix(system: FiniteSystem) -> PresentingMatrix:
    _require_valid(system)
    return PresentingMatrix(system, range(system.size))


def dynamical_dimension(system: FiniteSystem) -> int:
    """dim V: the rank of the presenting matrix, f(n) of the galois table."""
    presenting_matrix(system)
    return _galois_table(system)[system.period]


def _orbit_quotient(pm: PresentingMatrix) -> PresentingMatrix:
    """The rows of `pm.system` at the first element of each T-orbit.  All of
    them share the `_sums` in `system._memo["quotient"]`, so the orbit-start
    rows and each of their block sums are built once per system."""
    system = pm.system
    starts = tuple(c[0] for c in orbits(system))
    return PresentingMatrix(system, starts, system._memo.setdefault("quotient", {}))


def _orbit_selection(quotient: PresentingMatrix) -> PresentingMatrix:
    """The orbits whose rows generate the rotation closure of every orbit row.

    Every rank that reads the orbit-start rows is the rank of a linear image
    of them that carries the rotation of a row to a rotation of its image,
    or to a root of unity times it, so it depends only on the rotation
    closure of the rows.  On a tall system, one with more orbits than m*k,
    the width of the top closure (m the minimal period), at least the
    surplus rows are redundant.  There the top closure of the galois route,
    f(m) = dim V, runs by Gauss-Jordan and reads every orbit row, in orbit
    order, each followed by its rotations while they join
    (`_gauss_jordan_closure`), so it also names the orbits whose rows lie
    outside the closure of the orbits before them; they are kept, in orbit
    order.  The result is memoised as `system._memo["selection"]`: the kept
    starts, their own `_sums`, preset with the quotient's rows and block sums
    for m at the kept orbits so each block sum of the kept rows is built
    once, and f(m).  If no row joins, every row is zero, and the first orbit
    alone gives the rank 0 of every matrix.  On a system that is not tall the
    selection is `quotient` itself, the same object, at no cost.
    """
    system = quotient.system
    m, k = minimal_period(system), quotient.k
    if len(quotient.elements) <= m * k:
        return quotient
    kept = system._memo.get("selection")
    if kept is None:
        rank, index = _gauss_jordan_closure(quotient.block_sums(m), k)
        index = index or [0]
        starts = tuple(quotient.elements[i] for i in index)
        sums = {d: [quotient.block_sums(d)[i] for i in index] for d in (quotient.n, m)}
        kept = system._memo["selection"] = (starts, sums, rank)
    return PresentingMatrix(system, *kept[:2])


def invariant_matrix(pm: PresentingMatrix) -> ExactMatrix:
    """Sum of the n column blocks; its column span is the invariant space.
    The blocks are summed on the integer rows, and each sum divided by L."""
    lcm = _integer_stats(pm.system)[0]
    sums = pm.block_sums(1)
    return ExactMatrix.from_rows([[Fraction(v, lcm) for v in row] for row in sums])


def zeta_matrix(pm: PresentingMatrix, exponent: int) -> ExactMatrix:
    """Block sum with weights conj(zeta)^m for zeta = e^(2*pi*i*exponent/n).

    Entries live in Q(zeta_d) with d = n/gcd(exponent, n); the column span is
    the zeta-eigenspace of U, so the rank is the multiplicity of zeta.  For
    zeta = zeta_d^s, each entry sums the integer rows of `pm` into d slots of
    Z[x]/(x^d - 1), block m at slot (-s*m) mod d, and is reduced mod Phi_d.
    The matrix is built as integer rows, with no scalars: each row is those
    sums, phi per entry and flat, over L, the common denominator of
    `_integer_stats`.
    """
    n, k = pm.n, pm.k
    if not 0 <= exponent < n:
        raise ValueError(f"exponent must lie in 0..{n - 1}")
    g = math.gcd(exponent, n)
    d = n // g
    s = exponent // g
    phi, mod = _field(d)
    # slot t holds the sum of the blocks m = r (mod d) with -s*r = t (mod d)
    offsets = [0] * d
    for r in range(d):
        offsets[(-s * r) % d] = r * k
    lcm = _integer_stats(pm.system)[0]
    rows = []
    for sums in pm.block_sums(d):
        out: list[int] = []
        for i in range(k):
            acc = [sums[o + i] for o in offsets]
            _cyc_reduce_int(acc, phi, mod)
            out += acc[:phi]
        rows.append((lcm, out))
    return ExactMatrix(rows, k, d)


def shifted_difference(pm: PresentingMatrix) -> ExactMatrix:
    """M - M' where M' has the column blocks rotated one block rightward.

    Each row is its presenting row minus that row rotated by k entries:
    entry (x, j*k + i) is g_i(T^j x) - g_i(T^(j-1) x), with T^-1 = T^(n-1).
    The matrix is built as integer rows, with no scalars: each difference of
    integer rows, over L, the common denominator of `_integer_stats`.
    """
    lcm, k = _integer_stats(pm.system)[0], pm.k
    rows = [
        (lcm, [a - b for a, b in zip(row, row[-k:] + row[:-k])]) for row in pm.rows
    ]
    return ExactMatrix(rows, pm.n * k, None)


def zero_mesic_dimension(system: FiniteSystem) -> int:
    """Number of independent 0-mesic functions in V (rank of M - M').

    The row of M - M' at T(x) is its row at x rotated by k entries, so its
    row space is the rotation closure of one row per T-orbit.  M - M' is
    linear in the presenting rows and commutes with the rotation, so the
    `shifted_difference` of the selected orbits (`_orbit_selection`) gives
    it.
    """
    selection = _orbit_selection(_orbit_quotient(presenting_matrix(system)))
    rows = shifted_difference(selection)._integer_rows
    return _rotation_closure_rank([row for _, row in rows], selection.k)


@dataclass(frozen=True)
class Spectrum:
    """Multiplicity of each n-th root of unity as an eigenvalue of U on V.

    mults[j] is the multiplicity of e^(2*pi*i*j/n).  For rational statistics
    it depends only on gcd(j, n): the automorphism zeta_n -> zeta_n^a of
    Q(zeta_n), gcd(a, n) = 1, fixes the statistics and maps the weighted block
    sum of exponent j entry by entry onto that of exponent a*j, and a field
    automorphism preserves rank.  Every j with gcd(j, n) = g is a*g mod n for
    some such a.  by_divisor lists one value per class.
    """

    order: int
    mults: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(self.mults)

    @property
    def by_divisor(self) -> dict[int, int]:
        """Common multiplicity of the primitive d-th roots, for each d | n."""
        return {
            d: self.mults[(self.order // d) % self.order]
            for d in divisors(self.order)
        }


def _integer_stats(system: FiniteSystem) -> tuple[int, list[tuple[int, ...]]]:
    """The memoised `(L, rows)`: the statistics over one common denominator.

    L is the lcm of every denominator in the statistics and rows[x][i] is
    g_i(x) * L.
    """
    grid = system._memo.get("integer")
    if grid is None:
        stats = system.stats
        lcm = math.lcm(*{v.denominator for row in stats for v in row})
        # tuple of a list, not of a generator, so each row is allocated exactly
        rows = [
            tuple([v.numerator * (lcm // v.denominator) for v in row]) for row in stats
        ]
        grid = system._memo["integer"] = (lcm, rows)
    return grid


def _galois_table(system: FiniteSystem) -> dict[int, int]:
    """The memoised f(d) = dim of the T^d-invariant subspace of V, for d | n.

    The system must be valid.  f(d) is the rank of the T^d-invariant matrix
    (`PresentingMatrix.block_sums`, width d*k), whose row at T(x) is its row
    at x rotated by k entries.  So its row space is the rotation closure of one
    row per T-orbit, and `_rotation_closure_rank` computes it from those
    rows alone.  U^m = I on V for the minimal period m, so closures run only
    for e | m, and f(d) = f(gcd(d, m)).  f(n) = f(m) is dim V, and its
    closure reads every orbit row; on a tall system it is the closure that
    picks the selected orbits (`_orbit_selection`).  Each closure for e < m
    reads only the rows of the selected orbits, which generate the same
    closure.
    """
    table = system._memo.get("galois")
    if table is None:
        quotient = _orbit_quotient(PresentingMatrix(system, ()))
        selection = _orbit_selection(quotient)
        m, k = minimal_period(system), quotient.k
        kept = system._memo.get("selection")
        closure = {
            e: _rotation_closure_rank(selection.block_sums(e), k)
            for e in divisors(m)[:-1]
        }
        closure[m] = kept[2] if kept else _rotation_closure_rank(quotient.block_sums(m), k)
        table = {d: closure[math.gcd(d, m)] for d in divisors(system.period)}
        system._memo["galois"] = table
    return table


def spectrum(system: FiniteSystem, method: str = "galois") -> Spectrum:
    """Spectral multiplicity function of U, by one of two independent routes.

    Both start from the T^d block sums of one row per T-orbit (see the module
    notes), and neither reads the other's ranks, so the two stay independent;
    they agree on every system with rational statistics.  On a tall system
    they share the selected orbits (`_orbit_selection`) as they share the
    block sums: the cyclotomic ranks and the galois closures below the top
    read only those, and the top closure, dim V, reads every orbit row, so
    under `--method both` a selection that lost a row shows as
    sum phi(d)*r_d < dim V.  "galois" works
    entirely over Q: it recovers the common multiplicity m_e of the
    primitive e-th roots from the table f of `_galois_table` by Moebius
    inversion of sum_{e | d} phi(e) m_e = f(d).  "cyclotomic" ranks, for
    each d | n, the weighted block sum of exponent n/d over Q(zeta_d), as the
    zeta-closure of its flat coefficient rows (`ExactMatrix.rank`), and
    gives that rank to every exponent j with n/gcd(j, n) = d (exact by
    Galois conjugation, see `Spectrum`).  The cyclotomic ranks and the galois
    closures with rows under 3/4 of the columns share the integer loop of
    `exact._streaming_echelon`, on different matrices in different fields.
    The row of an orbit of length L is L-periodic, so its weighted block sum
    at a primitive d-th root vanishes unless d | L: a d that divides no
    orbit length has rank 0, with no matrix and no Phi_d.
    """
    _require_valid(system)
    n = system.period
    if method == "galois":
        f = _galois_table(system)
        prim_mult: dict[int, int] = {}
        for e in divisors(n):
            total = sum(mobius(e // d) * f[d] for d in divisors(e))
            phi = euler_phi(e)
            if total % phi or total < 0:
                raise ArithmeticError(
                    f"Moebius inversion produced a non-multiplicity at divisor {e}"
                )
            prim_mult[e] = total // phi
        return Spectrum(n, tuple(prim_mult[n // math.gcd(j, n)] for j in range(n)))
    if method == "cyclotomic":
        pm = _orbit_selection(_orbit_quotient(presenting_matrix(system)))
        lengths = {len(c) for c in orbits(system)}
        # exponent n/d stands for every j with gcd(j, n) = n/d
        rank = dict.fromkeys(divisors(n), 0)
        for d in rank:
            if any(length % d == 0 for length in lengths):
                rank[d] = zeta_matrix(pm, (n // d) % n).rank()
        return Spectrum(n, tuple(rank[n // math.gcd(j, n)] for j in range(n)))
    raise ValueError(f"unknown spectrum method: {method!r}")


def invariant_basis(system: FiniteSystem) -> list[tuple[Fraction, ...]]:
    """A basis of the invariant space, as value vectors on X.

    The rows of the invariant matrix are constant along orbits.  Its columns
    are chosen on the rows of the selected orbits (`_orbit_selection`),
    whose block sums span its row space, as a row's rotations have the same
    block sum, and their values are read back on all of X
    from the block sums of every orbit, each divided by L.
    """
    quotient = _orbit_quotient(presenting_matrix(system))
    columns = invariant_matrix(_orbit_selection(quotient)).column_basis()
    lcm = _integer_stats(system)[0]
    sums = quotient.block_sums(1)
    orbit_of = [0] * system.size
    for t, cycle in enumerate(orbits(system)):
        for x in cycle:
            orbit_of[x] = t
    basis = []
    for c in columns:
        values = [Fraction(row[c], lcm) for row in sums]
        basis.append(tuple(values[t] for t in orbit_of))
    return basis


def homomesy_value(
    system: FiniteSystem, coeffs: list[Fraction | int]
) -> Fraction | None:
    """Common orbit average of sum(coeffs * shifted statistics), if one exists.

    `coeffs` has length k*n and is indexed like the presenting-matrix columns.
    Returns None when the orbit averages differ.  T^j permutes each orbit, so
    g_i o T^j has the orbit averages of g_i, and the combination averages
    sum_i a_i * g_i on each orbit, with a_i = sum_j coeffs[j*k + i].  That
    is summed on the integer statistics, with the weights a_i scaled once to
    integers over a common denominator, and divided by it and L once.
    """
    pm = presenting_matrix(system)
    n, k = pm.n, pm.k
    if len(coeffs) != n * k:
        raise ValueError(f"need {n * k} coefficients, got {len(coeffs)}")
    coeffs = [Fraction(c) for c in coeffs]
    lcm, ints = _integer_stats(system)
    den, weights = _scale_to_int([sum(coeffs[i::k]) for i in range(k)])
    values = [sum(map(mul, row, weights)) for row in ints]
    return _common_orbit_average(values, orbits(system), den * lcm)[1]


def _common_orbit_average(
    values: Sequence[Fraction | int],
    cycles: tuple[tuple[int, ...], ...],
    scale: int,
) -> tuple[tuple[Fraction, ...], Fraction | None]:
    """The average of `values` / `scale` on each orbit, and their common value.

    The common value is None when the averages differ.
    """
    averages = tuple(
        Fraction(sum(values[x] for x in orbit), len(orbit) * scale)
        for orbit in cycles
    )
    first = averages[0]
    return averages, first if all(a == first for a in averages) else None


@dataclass(frozen=True)
class StatisticVerdict:
    """Classification of one statistic: invariant, c-mesic, or neither."""

    name: str
    invariant: bool
    homomesy: Fraction | None
    orbit_averages: tuple[Fraction, ...]

    @property
    def verdict(self) -> str:
        if self.invariant:
            return "invariant"
        if self.homomesy is not None:
            return "c-mesic"
        return "neither"


@dataclass(frozen=True)
class HomomesyReport:
    verdicts: tuple[StatisticVerdict, ...]
    orbit_sizes: tuple[int, ...]


def statistic_report(system: FiniteSystem) -> HomomesyReport:
    """Classify each original statistic and record its exact orbit averages."""
    _require_valid(system)
    cycles = orbits(system)
    perm = system.perm
    lcm, ints = _integer_stats(system)
    verdicts = []
    for i in range(system.num_stats):
        values = [row[i] for row in ints]
        invariant = all(values[perm[x]] == values[x] for x in range(system.size))
        averages, homomesy = _common_orbit_average(values, cycles, lcm)
        verdicts.append(
            StatisticVerdict(system.stat_name(i), invariant, homomesy, averages)
        )
    return HomomesyReport(tuple(verdicts), tuple(len(o) for o in cycles))


def zero_mesic_original_combos(system: FiniteSystem) -> list[tuple[Fraction, ...]]:
    """Basis of {a in Q^k : sum a_i g_i has zero average on every orbit}.

    The kernel of the invariant matrix at the orbit starts: its row at the
    start of an orbit O is n/|O| times the orbit sums of the statistics, so
    it has the kernel of the (orbit count x k) matrix of orbit sums.
    """
    quotient = _orbit_quotient(presenting_matrix(system))
    return invariant_matrix(quotient).nullspace_basis()


def coboundary_witness(
    system: FiniteSystem, values: list[Fraction | int]
) -> tuple[Fraction, ...]:
    """A function g with f = g - g o T, for a 0-mesic value vector f.

    Uses the weighted sum h = 1*f + 2*(f o T) + ... + n*(f o T^(n-1)) and
    returns g = -h/n.  Rejects inputs whose orbit sums are nonzero.  f is
    scaled once to integers over the lcm of its denominators, so the orbit
    sums and h are integer sums, and each g(x) is one Fraction.
    """
    _require_valid(system)
    f = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    if len(f) != system.size:
        raise ValueError(f"value vector must have length {system.size}")
    den, ints = _scale_to_int(f)
    for orbit in orbits(system):
        total = sum(ints[x] for x in orbit)
        if total:
            raise ValueError(
                f"not 0-mesic: orbit starting at {orbit[0]} has sum "
                f"{Fraction(total, den)}"
            )
    n = system.period
    tables = _power_tables(system.perm, n)
    return tuple(
        Fraction(-sum((j + 1) * ints[tables[j][x]] for j in range(n)), n * den)
        for x in range(system.size)
    )


def extend_products(system: FiniteSystem) -> FiniteSystem:
    """Close the statistic list under degree-2 products of shifted statistics.

    The new system keeps X, T and the period; its statistics are the shifted
    statistics g_i o T^j, read from `system.stats` through the powers of T,
    followed by all pairwise products of those, deduplicated by exact value
    vector.
    """
    pm = presenting_matrix(system)  # validates
    n, k = pm.n, pm.k
    grid = system.stats
    named: list[tuple[str, tuple[Fraction, ...]]] = []
    for j, image in enumerate(_power_tables(system.perm, n)):
        for i in range(k):
            base = system.stat_name(i)
            name = base if j == 0 else f"U^{j} {base}"
            named.append((name, tuple(grid[y][i] for y in image)))
    count = len(named)
    for a in range(count):
        for b in range(a, count):
            name = f"{named[a][0]} * {named[b][0]}"
            values = tuple(u * v for u, v in zip(named[a][1], named[b][1]))
            named.append((name, values))
    seen: set[tuple[Fraction, ...]] = set()
    kept: list[tuple[str, tuple[Fraction, ...]]] = []
    for name, values in named:
        if values not in seen:
            seen.add(values)
            kept.append((name, values))
    stats = tuple(
        tuple(values[x] for _, values in kept) for x in range(system.size)
    )
    return FiniteSystem(
        perm=system.perm,
        period=system.period,
        stats=stats,
        labels=system.labels,
        stat_names=tuple(name for name, _ in kept),
    )


@dataclass(frozen=True)
class FlatnessReport:
    """Spread of the non-unital eigenvalue multiplicities."""

    mult_one: int
    min_nonunital: int | None
    max_nonunital: int | None
    ratio: Fraction | None
    dim_v: int
    dim_v1perp: int


def flatness_report(system: FiniteSystem) -> FlatnessReport:
    """Summarize how evenly the multiplicity spreads over the nonunital roots.

    The ratio max/min runs over nonunital eigenvalues with nonzero
    multiplicity and is absent (None) when there are none.  The spectrum is
    the galois route's.
    """
    sp = spectrum(system)  # validates
    if system.period < 2:
        raise ValueError("flatness needs period >= 2")
    nonzero = [m for m in sp.mults[1:] if m > 0]
    if nonzero:
        lo, hi = min(nonzero), max(nonzero)
        ratio: Fraction | None = Fraction(hi, lo)
    else:
        lo = hi = None
        ratio = None
    return FlatnessReport(
        mult_one=sp.mults[0],
        min_nonunital=lo,
        max_nonunital=hi,
        ratio=ratio,
        dim_v=sp.dimension,
        dim_v1perp=sp.dimension - sp.mults[0],
    )
