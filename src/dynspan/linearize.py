"""Linearization of a finite periodic system with statistics.

Builds the presenting matrix of the time-evolution operator U (the map
f -> f o T on the span V of the shifted statistics), computes the
multiplicity of each n-th root of unity as an eigenvalue of U, extracts
invariant and 0-mesic data, detects homomesies, and produces coboundary
witnesses.  Functions on V are represented extensionally, as length-|X|
value vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import CycNumber, ExactMatrix, _bareiss_int, divisors, euler_phi, mobius
from .system import FiniteSystem, OrbitDecomposition, orbits, validate

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
    """The |X| x (k*n) matrix of values of the shifted statistics.

    Column j*k + i holds the function x -> g_{i+1}(T^j x); block 0 is the
    stats grid itself and block j+1 is block j composed with T.  Inside this
    module `_orbit_quotient` makes a copy with one row per T-orbit, which
    zeta_matrix and invariant_matrix accept since they work row by row.
    """

    system: FiniteSystem
    matrix: ExactMatrix

    @property
    def n(self) -> int:
        return self.system.period

    @property
    def k(self) -> int:
        return self.system.num_stats


def presenting_matrix(system: FiniteSystem) -> PresentingMatrix:
    _require_valid(system)
    n = system.period
    tables = _power_tables(system.perm, n)
    rows = []
    for x in range(system.size):
        row: list[Fraction] = []
        for j in range(n):
            row.extend(system.stats[tables[j][x]])
        rows.append(row)
    return PresentingMatrix(system, ExactMatrix.from_rows(rows))


def dynamical_dimension(system: FiniteSystem) -> int:
    """dim V: the rank of the presenting matrix."""
    return presenting_matrix(system).matrix.rank()


def _orbit_quotient(
    pm: PresentingMatrix, cycles: tuple[tuple[int, ...], ...]
) -> PresentingMatrix:
    """The presenting matrix restricted to the first element of each T-orbit."""
    entries = pm.matrix.entries
    return PresentingMatrix(pm.system, ExactMatrix(tuple(entries[c[0]] for c in cycles)))


def _power_block_sums(rows: list, k: int, d: int) -> list[list]:
    """Rows of the T^d-invariant matrix, from rows of the presenting matrix.

    Entry r*k + i of the row at x is the sum of g_{i+1}(T^(r + m*d) x) over
    m = 0..n/d-1, that is of every (d*k)-th presenting entry from r*k + i.
    d = 1 gives the invariant matrix; d = n gives the rows back.
    """
    width = d * k
    return [[sum(row[c::width]) for c in range(width)] for row in rows]


def invariant_matrix(pm: PresentingMatrix) -> ExactMatrix:
    """Sum of the n column blocks; its column span is the invariant space."""
    return ExactMatrix.from_rows(_power_block_sums(pm.matrix.entries, pm.k, 1))


def zeta_matrix(pm: PresentingMatrix, exponent: int) -> ExactMatrix:
    """Block sum with weights conj(zeta)^m for zeta = e^(2*pi*i*exponent/n).

    Entries live in Q(zeta_d) with d = n/gcd(exponent, n); the column span is
    the zeta-eigenspace of U, so the rank is the multiplicity of zeta.
    """
    n, k = pm.n, pm.k
    if not 0 <= exponent < n:
        raise ValueError(f"exponent must lie in 0..{n - 1}")
    g = math.gcd(exponent, n)
    d = n // g
    s = exponent // g
    phi = euler_phi(d)
    # powers of roots of unity reduce to integer coefficient vectors
    weights = [
        [(t, int(c)) for t, c in enumerate(CycNumber.root(d, (-s * m) % d).coeffs) if c]
        for m in range(n)
    ]
    ent = pm.matrix.entries
    integral = all(v.denominator == 1 for row in ent for v in row)
    rows = []
    for r in range(pm.matrix.rows):
        row = []
        for i in range(k):
            acc = [0 if integral else Fraction(0)] * phi
            for j in range(n):
                v = ent[r][j * k + i]
                if v:
                    if integral:
                        v = v.numerator
                    for t, w in weights[j]:
                        acc[t] += w * v
            row.append(CycNumber._raw(d, tuple(Fraction(x) for x in acc)))
        rows.append(row)
    return ExactMatrix(tuple(tuple(row) for row in rows))


def shifted_difference(pm: PresentingMatrix) -> ExactMatrix:
    """M - M' where M' has the column blocks rotated one block rightward."""
    n, k = pm.n, pm.k
    ent = pm.matrix.entries
    rows = []
    for r in range(pm.matrix.rows):
        row = []
        for j in range(n):
            src = ((j - 1) % n) * k
            for i in range(k):
                row.append(ent[r][j * k + i] - ent[r][src + i])
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def zero_mesic_dimension(system: FiniteSystem) -> int:
    """Number of independent 0-mesic functions in V (rank of M - M')."""
    return shifted_difference(presenting_matrix(system)).rank()


@dataclass(frozen=True)
class Spectrum:
    """Multiplicity of each n-th root of unity as an eigenvalue of U on V.

    mults[j] is the multiplicity of e^(2*pi*i*j/n); for rational statistics
    the value depends only on gcd(j, n).
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

    def multiplicity(self, exponent: int) -> int:
        return self.mults[exponent % self.order]


def _integer_presenting_rows(system: FiniteSystem) -> list[list[int]]:
    """The presenting matrix over Z, with g_i scaled by the lcm of its denominators.

    Scaling a statistic by a nonzero constant scales its column in every
    block, so no rank of any block-sum matrix changes.
    """
    k = system.num_stats
    scales = [math.lcm(*(row[i].denominator for row in system.stats)) for i in range(k)]
    stats = [
        [v.numerator * (s // v.denominator) for v, s in zip(row, scales)]
        for row in system.stats
    ]
    tables = _power_tables(system.perm, system.period)
    return [[v for t in tables for v in stats[t[x]]] for x in range(system.size)]


def _invariant_dim_of_power(
    rows: list[list[int]], k: int, d: int, cycles: tuple[tuple[int, ...], ...]
) -> int:
    """dim of the T^d-invariant subspace of V, from integer presenting rows.

    This is the rank of the T^d-invariant matrix (`_power_block_sums`), whose
    rows are equal along T^d-orbits.  A T-orbit of length L splits into
    gcd(L, d) T^d-orbits, and its first gcd(L, d) elements lie in distinct
    ones, so only those rows are ranked, by integer Bareiss elimination.
    """
    reps = [rows[x] for cycle in cycles for x in cycle[: math.gcd(len(cycle), d)]]
    return len(_bareiss_int(_power_block_sums(reps, k, d))[1])


def spectrum(system: FiniteSystem, method: str = "galois") -> Spectrum:
    """Spectral multiplicity function of U, by one of two independent routes.

    "galois" works entirely over Q: for each divisor d of n it computes the
    dimension f(d) of the T^d-invariant subspace of V and recovers the common
    multiplicity m_e of the primitive e-th roots by Moebius inversion of
    sum_{e | d} phi(e) m_e = f(d).  "cyclotomic" ranks the weighted block sum
    for every exponent separately, in the corresponding cyclotomic field.
    The two methods agree on every system with rational statistics.

    Both rank one row per orbit, which is exact: rows of the T^d-invariant
    matrix are equal along T^d-orbits, and the row of a weighted block sum at
    T(x) is zeta times the row at x, so the other rows add nothing to a rank.
    """
    _require_valid(system)
    n = system.period
    cycles = orbits(system).orbits
    if method == "galois":
        rows = _integer_presenting_rows(system)
        k = system.num_stats
        f = {d: _invariant_dim_of_power(rows, k, d, cycles) for d in divisors(n)}
        prim_mult: dict[int, int] = {}
        for e in divisors(n):
            total = sum(mobius(e // d) * f[d] for d in divisors(e))
            phi = euler_phi(e)
            if total % phi or total < 0:
                raise ArithmeticError(
                    f"Moebius inversion produced a non-multiplicity at divisor {e}"
                )
            prim_mult[e] = total // phi
        mults = tuple(prim_mult[n // math.gcd(j, n)] for j in range(n))
        return Spectrum(n, mults)
    if method == "cyclotomic":
        pm = _orbit_quotient(presenting_matrix(system), cycles)
        mults = tuple(zeta_matrix(pm, j).rank() for j in range(n))
        return Spectrum(n, mults)
    raise ValueError(f"unknown spectrum method: {method!r}")


def invariant_basis(system: FiniteSystem) -> list[tuple[Fraction, ...]]:
    """A basis of the invariant space, as value vectors on X.

    The columns are chosen on one row per T-orbit of the invariant matrix,
    whose rows are constant along orbits, and then read back on all of X.
    """
    cycles = orbits(system).orbits
    m1 = invariant_matrix(_orbit_quotient(presenting_matrix(system), cycles))
    orbit_of = [0] * system.size
    for t, cycle in enumerate(cycles):
        for x in cycle:
            orbit_of[x] = t
    return [
        tuple(m1.entries[orbit_of[x]][c] for x in range(system.size))
        for c in m1.column_basis()
    ]


def homomesy_value(
    system: FiniteSystem, coeffs: list[Fraction | int]
) -> Fraction | None:
    """Common orbit average of sum(coeffs * shifted statistics), if one exists.

    `coeffs` has length k*n and is indexed like the presenting-matrix columns.
    Returns None when the orbit averages differ.
    """
    pm = presenting_matrix(system)
    if len(coeffs) != pm.n * pm.k:
        raise ValueError(f"need {pm.n * pm.k} coefficients, got {len(coeffs)}")
    values = pm.matrix.apply([Fraction(c) for c in coeffs])
    return _common_orbit_average(values, orbits(system))[1]


def _common_orbit_average(
    values: tuple[Fraction, ...], decomposition: OrbitDecomposition
) -> tuple[tuple[Fraction, ...], Fraction | None]:
    """The average of `values` on each orbit, and their common value if any."""
    averages = tuple(
        sum((values[x] for x in orbit), Fraction(0)) / len(orbit)
        for orbit in decomposition.orbits
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
    decomposition = orbits(system)
    perm = system.perm
    verdicts = []
    for i in range(system.num_stats):
        values = tuple(row[i] for row in system.stats)
        invariant = all(values[perm[x]] == values[x] for x in range(system.size))
        averages, homomesy = _common_orbit_average(values, decomposition)
        verdicts.append(
            StatisticVerdict(system.stat_name(i), invariant, homomesy, averages)
        )
    return HomomesyReport(
        tuple(verdicts), tuple(len(o) for o in decomposition.orbits)
    )


def zero_mesic_original_combos(system: FiniteSystem) -> list[tuple[Fraction, ...]]:
    """Basis of {a in Q^k : sum a_i g_i has zero average on every orbit}.

    Computed as the nullspace of the (orbit count x k) matrix of orbit sums.
    """
    _require_valid(system)
    decomposition = orbits(system)
    rows = []
    for orbit in decomposition.orbits:
        rows.append(
            [
                sum((system.stats[x][i] for x in orbit), Fraction(0))
                for i in range(system.num_stats)
            ]
        )
    return ExactMatrix.from_rows(rows).nullspace_basis()


def coboundary_witness(
    system: FiniteSystem, values: list[Fraction | int]
) -> tuple[Fraction, ...]:
    """A function g with f = g - g o T, for a 0-mesic value vector f.

    Uses the weighted sum h = 1*f + 2*(f o T) + ... + n*(f o T^(n-1)) and
    returns g = -h/n.  Rejects inputs whose orbit sums are nonzero.
    """
    _require_valid(system)
    f = [Fraction(v) for v in values]
    if len(f) != system.size:
        raise ValueError(f"value vector must have length {system.size}")
    for orbit in orbits(system).orbits:
        total = sum((f[x] for x in orbit), Fraction(0))
        if total:
            raise ValueError(
                f"not 0-mesic: orbit starting at {orbit[0]} has sum {total}"
            )
    n = system.period
    tables = _power_tables(system.perm, n)
    g = []
    for x in range(system.size):
        h = sum(((j + 1) * f[tables[j][x]] for j in range(n)), Fraction(0))
        g.append(-h / n)
    return tuple(g)


def extend_products(system: FiniteSystem) -> FiniteSystem:
    """Close the statistic list under degree-2 products of shifted statistics.

    The new system keeps X, T and the period; its statistics are the shifted
    statistics g_i o T^j followed by all pairwise products of those,
    deduplicated by exact value vector.
    """
    _require_valid(system)
    pm = presenting_matrix(system)
    n, k = pm.n, pm.k
    named: list[tuple[str, tuple[Fraction, ...]]] = []
    for j in range(n):
        for i in range(k):
            base = system.stat_name(i)
            name = base if j == 0 else f"U^{j} {base}"
            named.append((name, pm.matrix.column(j * k + i)))
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


def flatness_report(system: FiniteSystem, method: str = "galois") -> FlatnessReport:
    """Summarize how evenly the multiplicity spreads over the nonunital roots.

    The ratio max/min runs over nonunital eigenvalues with nonzero
    multiplicity and is absent (None) when there are none.
    """
    if system.period < 2:
        raise ValueError("flatness needs period >= 2")
    sp = spectrum(system, method)
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
