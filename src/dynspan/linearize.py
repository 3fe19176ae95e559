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
under rotation (`_orbit_selection`).  Its rows read the one store of the
statistics, the integer grid `system.grid`: every statistic times L, the lcm
of all their denominators.  A `PresentingMatrix` builds its rows and each
T^d block sum of them once, and the orbit-start selections keep them in the
system's memo, so the galois table, `zeta_matrix`, `invariant_matrix` and
the orbit averages of a report share each sum.  The stages of a report sum
those integers, not Fractions: orbit averages, the invariance test, the
block sums and the differences of M - M'.  Every orbit average is an integer
over one denominator, n*L times that of any weights, read off the d = 1
block sums, and a Fraction is built only for a value that is returned, once
per distinct value.  `zeta_matrix` and `shifted_difference` build their
`ExactMatrix` from its integer rows, their sums over L (a Q(zeta_d) row
flat, phi coefficients per entry), so the cyclotomic and 0-mesic ranks build
no CycNumber and no Fraction.

No rank here reads a row for every element of X.  V is closed under
composition with T, so the row of the presenting matrix at T(x) is its row at
x with the column blocks rotated by one; so are the rows of each
T^d-invariant matrix and of M - M'.  The row space of such a matrix is the
smallest rotation-invariant subspace that contains one row per T-orbit, and
`_rotation_closure_rank` finds its dimension from those rows alone, in
integers, by one of two kernels chosen by shape (see `exact`).  The weighted
block sums of the cyclotomic route need no closure: their row at T(x) is a
root of unity times their row at x.  On few long orbits the galois closures
split in two by the Chinese remainder theorem, along x^e - 1 =
(x^(e/p) - 1) * Psi: f(e) = f(e/p) plus the rank of a narrower closure mod
Psi, still in integers and with no cyclotomic polynomial (`_split_closure`).

Each rank of a report is the rank of a linear image of the orbit-start rows
that respects the rotation, so it depends only on their rotation closure, not
on the number of orbits.  The top closure of the galois route, f(m) = dim V
(m the minimal period), reads every orbit row, and names the orbits whose
rows lie outside the closure of the orbits before them; they are kept once
per system (`_orbit_selection`).  Once it has run, every other rank reads
only those: the galois closures for e < m, the 0-mesic closure (the
`shifted_difference` of the kept rows), every `zeta_matrix` rank of the
cyclotomic route and the column choice of `invariant_basis`, whose values
still come from the block sums of every orbit.  dim V alone still reads
every orbit row, so the routes still check each other: a selection that lost
a row would give sum phi(d)*r_d < f(n), and `--method both` would find the
spectra disagree.  `chain(8,6)` keeps one orbit of 246, `multiset(8,5)` six
of 99 and `multiset(7,3)` three of 12.

Neither route ranks once per exponent.  The statistics are rational, so the
multiplicity of zeta^j depends only on gcd(j, n) (see `Spectrum`), and each
route computes at most one number per divisor d of n.  On a non-minimal
period neither ranks past what the orbits carry: the galois route closes
only for d | m, the minimal period, and the cyclotomic route only for d
dividing some orbit length.  Nor does the 0-mesic closure: its rows repeat
after m blocks, so it runs at width m*k, not n*k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact import (
    ExactMatrix,
    _closure_rank,
    _cyc_reduce_int,
    _factorize,
    _field,
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
    "zeta_matrix",
]


def _require_valid(system: FiniteSystem) -> None:
    problems = validate(system)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))


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
        d = n gives the rows and d = 1 the invariant matrix, both read off one
        walk of each orbit (`_walk_orbits`), the d = 1 sums also when it builds
        the rows.  An empty selection has no matrix, and raises ValueError."""
        sums = self._sums.get(d)
        if sums is None:
            if not self.elements:
                raise ValueError("a presenting matrix needs at least one element")
            if d in (1, self.n):
                rows, ones = _walk_orbits(self.system, self.elements, d == self.n)
                self._sums.setdefault(1, ones)
                if rows is not None:
                    self._sums[d] = rows
                return self._sums[d]
            w = d * self.k
            sums = [[sum(row[c::w]) for c in range(w)] for row in self.rows]
            self._sums[d] = sums
        return sums


def _walk_orbits(
    system: FiniteSystem, elements: Sequence[int], rows: bool
) -> tuple[list[tuple] | None, list[list[int]]]:
    """The d = 1 block sums at `elements` and, with `rows`, the integer rows
    of the presenting matrix there, from one walk of each orbit (with `rows`
    and n = 1 the rows are the d = 1 sums, and no other list is built).

    The row at x concatenates the rows of x, T(x), ..., T^(n-1)(x) of the
    integer statistics grid (`system.grid`), each statistic times L.
    Scaling the matrix by a nonzero constant changes no rank of any block-sum
    matrix, and a value read from it is divided by L once.  The orbit O of x
    has l elements, l | n on a valid system, so the row repeats the l grid
    rows along O n/l times, and its d = 1 sum is n/l times their sum, l*k
    cells.  `orbits` raises unless T is a bijection, so each walk returns to x."""
    grid, perm = system.grid[1], system.perm
    n, k = system.period, system.num_stats
    orbits(system)
    built, ones = [] if rows else None, []
    for x in elements:
        walk, y = [*grid[x]], perm[x]
        while y != x:
            walk += grid[y]
            y = perm[y]
        r = n * k // len(walk) if k else 0
        if rows:
            built.append(tuple(walk * r))
        if n > 1 or not rows:
            ones.append([r * sum(walk[i::k]) for i in range(k)])
    return built, ones


def presenting_matrix(system: FiniteSystem) -> PresentingMatrix:
    _require_valid(system)
    return PresentingMatrix(system, range(system.size))


def _orbit_quotient(pm: PresentingMatrix) -> PresentingMatrix:
    """The rows of `pm.system` at the first element of each T-orbit.  All of
    them share the `_sums` in `system._memo["quotient"]`, so the orbit-start
    rows and each of their block sums are built once per system."""
    system = pm.system
    starts = tuple(c[0] for c in orbits(system))
    return PresentingMatrix(system, starts, system._memo.setdefault("quotient", {}))


def _orbit_selection(quotient: PresentingMatrix) -> PresentingMatrix:
    """The orbits whose rows generate the rotation closure of every orbit
    row, as the galois top closure names them (`_top_closure`).  Until that
    has run the selection is `quotient` itself, so a cyclotomic spectrum runs
    no closure, unless the system is tall, with more orbits than m*k columns
    (m the minimal period), so some rows are redundant: there it runs here."""
    system = quotient.system
    tall = len(quotient.elements) > minimal_period(system) * quotient.k
    if not tall and "selection" not in system._memo:
        return quotient
    return _top_closure(quotient)[0]


def _top_closure(quotient: PresentingMatrix) -> tuple[PresentingMatrix, int]:
    """The orbits that the closure of every orbit row names, and its rank
    f(m) = dim V, memoised as `system._memo["selection"]`: their starts,
    their `_sums` (the quotient's rows and m-block sums at them, or its own
    if every orbit is kept), and f(m).  If no row joins, every row is zero,
    and the first orbit gives the rank 0 of every matrix.  f(m), and where
    the closure splits each f on its chain (`_split_closure`), starts
    `system._memo["galois"]`."""
    system = quotient.system
    kept = system._memo.get("selection")
    if kept is None:
        m, n, k = minimal_period(system), quotient.n, quotient.k
        rows = quotient.block_sums(m)
        if _splits(m, k, len(rows)):
            f, index = _split_closure(rows, m, k)
        else:
            rank, index = _rotation_closure_rank(rows, k)
            f = {m: rank}
        system._memo["galois"] = f
        index = index or [0]
        starts, sums = quotient.elements, quotient._sums
        if len(index) < len(starts):
            starts = tuple(starts[i] for i in index)
            sums = {d: [quotient.block_sums(d)[i] for i in index] for d in (n, m)}
        kept = system._memo["selection"] = (starts, sums, f[m])
    return PresentingMatrix(system, *kept[:2]), kept[2]


def _splits(m: int, k: int, count: int) -> bool:
    """Whether the galois closures of a system of minimal period m, with k
    statistics and `count` orbits, run through `_split_closure`.  The split
    wins where most work is images that join, and loses on low-rank closures
    of many orbits: on every shape it doubled the galois table of chain(5,5),
    and a rule that split chain(3..5,5) raised `verify-paper` `req_p50_ms`
    in `perfbench` by 10 %.  This rule measured neutral; it splits 47 of the
    120 `random-rational` systems of a pass, 5 of 108 on `ladder-small`."""
    return m * k >= 16 and m >= 2 * k and count <= m


def _split_closure(
    rows: Sequence[Sequence[int]], e: int, k: int
) -> tuple[dict[int, int], list[int]]:
    """f(d), the rank of the rotation closure of the block sums of `rows`
    at d, for d on the chain e -> e/p -> ... -> 1 (p the least prime factor),
    and the rows that `_rotation_closure_rank(rows, k)` names.  Read as k
    polynomials mod x^e - 1, rotation by k entries is times 1/x, and the
    closure is the submodule that the rows generate.  x^e - 1 = (x^q - 1)*Psi
    with q = e/p, coprime factors over Q, so by the Chinese remainder theorem
    f(e) = f(q) + h(e): the closure of the block sums at q and the closure
    mod Psi (`_psi_closure`).  A row lies outside the closure of the rows
    before it exactly when it does in some component, so the components'
    generators together are the whole closure's."""
    if e == 1:
        rank, named = _closure_rank(rows, None)
        return {1: rank}, named
    p = min(_factorize(e))
    w = e // p * k
    h, named = _psi_closure(rows, p, w, k)
    # the block sums at q are the sums of the p segments of w entries
    f, below = _split_closure([[sum(row[c::w]) for c in range(w)] for row in rows], e // p, k)
    f[e] = f[e // p] + h
    return f, sorted({*named, *below})


def _psi_closure(
    rows: Sequence[Sequence[int]], p: int, w: int, k: int
) -> tuple[int, list[int]]:
    """The rank h(e) and generators of the closure under 1/x of `rows`, of
    width e*k = p*w, mod Psi = 1 + x^q + ... + x^((p-1)q), q = w/k.  As
    x^((p-1)q) = -(1 + ... + x^((p-2)q)) mod Psi, a row reduces to its first
    p - 1 segments of w entries, each minus the last.  There 1/x rotates left
    by k entries, and the block leaving position 0 becomes x^(e-1), which is
    minus it at block q-1 of every segment: for p = 2 the negacyclic shift.
    At e = 2 the step is -1, whose closure is the span."""
    cut = (p - 1) * w
    reduced = [[a - b for a, b in zip(row[:cut], row[cut:] * (p - 1))] for row in rows]

    def step(row: Sequence[int]) -> list[int]:
        head, out = row[:k], [*row[k:], *[0] * k]
        if any(head):
            for b in range(w - k, cut, w):
                out[b : b + k] = [v - h for v, h in zip(out[b : b + k], head)]
        return out

    return _closure_rank(reduced, step if cut > k else None)


def invariant_matrix(pm: PresentingMatrix) -> ExactMatrix:
    """Sum of the n column blocks; its column span is the invariant space.
    The blocks are summed on the integer rows, and each sum divided by L."""
    lcm = pm.system.grid[0]
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
    `system.grid`.
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
    lcm = pm.system.grid[0]
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
    integer rows, over L, the common denominator of `system.grid`.
    """
    lcm, k = pm.system.grid[0], pm.k
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
    it.  T^m is the identity for the minimal period m, so every row is
    periodic with m blocks; cutting a row to its first m*k entries commutes
    with the rotation and loses nothing of an m-periodic row, so the closure
    runs at width m*k, not n*k.
    """
    selection = _orbit_selection(_orbit_quotient(presenting_matrix(system)))
    rows = shifted_difference(selection)._integer_rows
    width = minimal_period(system) * selection.k
    return _rotation_closure_rank([row[:width] for _, row in rows], selection.k)[0]


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


def _galois_table(system: FiniteSystem) -> dict[int, int]:
    """f(d) = dim of the T^d-invariant subspace of V, for d | n.

    The system must be valid.  f(d) is the rank of the T^d-invariant matrix
    (`PresentingMatrix.block_sums`, width d*k), whose row at T(x) is its row
    at x rotated by k entries.  So its row space is the rotation closure of one
    row per T-orbit, and `_rotation_closure_rank` computes it from those
    rows alone.  U^m = I on V for the minimal period m, so closures run only
    for e | m, and f(d) = f(gcd(d, m)).  f(n) = f(m) is dim V, whose closure
    reads every orbit row and names the selected orbits (`_top_closure`);
    each closure for e < m reads only their rows, once, into f on the
    divisors of m in `system._memo["galois"]`.  Where closures split, each e
    off the top chain is f(e/p) plus one closure mod Psi (`_psi_closure`).
    """
    quotient = _orbit_quotient(PresentingMatrix(system, ()))
    selection = _top_closure(quotient)[0]
    f = system._memo["galois"]
    m, k = minimal_period(system), quotient.k
    split = _splits(m, k, len(quotient.elements))
    for e in divisors(m):
        if e not in f:
            rows = selection.block_sums(e)
            if split:
                p = min(_factorize(e))
                f[e] = f[e // p] + _psi_closure(rows, p, e // p * k, k)[0]
            else:
                f[e] = _rotation_closure_rank(rows, k)[0]
    return {d: f[math.gcd(d, m)] for d in divisors(system.period)}


def spectrum(system: FiniteSystem, method: str = "galois") -> Spectrum:
    """Spectral multiplicity function of U, by one of two independent routes.

    Both start from the T^d block sums of one row per T-orbit (see the module
    notes), and neither reads the other's ranks, so the two stay
    independent; they agree on every system with rational statistics.  They
    share the selected orbits (`_orbit_selection`) as they share the block
    sums: once the galois top closure, dim V, has read every orbit row, the
    cyclotomic ranks and the galois closures below the top read only those,
    so under `--method both` a selection that lost a row shows as sum
    phi(d)*r_d < dim V.  "galois" works entirely over Q: it recovers the
    common multiplicity m_e of the primitive e-th roots from the table f of
    `_galois_table` by Moebius inversion of sum_{e | d} phi(e) m_e = f(d);
    on few long orbits each f(e) is f(e/p) plus one closure mod
    Psi = (x^e - 1)/(x^(e/p) - 1), which reads no Phi_d (`_split_closure`).
    "cyclotomic" ranks, for each d | n, the weighted block sum of exponent
    n/d over Q(zeta_d), as the closure of its flat coefficient rows under
    x -> x/zeta (`ExactMatrix.rank`), and gives that rank to every exponent
    j with n/gcd(j, n) = d (exact by Galois conjugation, see `Spectrum`).
    The cyclotomic ranks and the galois closures with rows under 3/4 of the
    columns share the integer loop of `exact._streaming_echelon`, on
    different matrices in different fields.  The row of an orbit of length L
    is L-periodic, so its weighted block sum at a primitive d-th root
    vanishes unless d | L: a d that divides no orbit length has rank 0, with
    no matrix and no Phi_d.
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
    block sum, and their values are read back on all of X from the block
    sums of every orbit, each divided by L.
    """
    quotient = _orbit_quotient(presenting_matrix(system))
    columns = invariant_matrix(_orbit_selection(quotient)).column_basis()
    lcm = system.grid[0]
    sums = quotient.block_sums(1)
    orbit_of = _orbit_index(system)
    basis = []
    for c in columns:
        values = [Fraction(row[c], lcm) for row in sums]
        basis.append(tuple(map(values.__getitem__, orbit_of)))
    return basis


def _orbit_index(system: FiniteSystem) -> list[int]:
    """orbit_of[x] = t for x in the t-th orbit of `orbits(system)`."""
    orbit_of = [0] * system.size
    for t, cycle in enumerate(orbits(system)):
        for x in cycle:
            orbit_of[x] = t
    return orbit_of


def homomesy_value(
    system: FiniteSystem, coeffs: list[Fraction | int]
) -> Fraction | None:
    """Common orbit average of sum(coeffs * shifted statistics), if one exists.

    `coeffs` has length k*n and is indexed like the presenting-matrix columns.
    Returns None when the orbit averages differ.  T^j permutes each orbit, so
    g_i o T^j has the orbit averages of g_i, and the combination averages
    sum_i a_i * g_i on each orbit, with a_i = sum_j coeffs[j*k + i].  That
    is summed on the integer statistics, with the weights a_i scaled once to
    integers over a common denominator, and each orbit sum times n/|O| is
    divided by it, L and n once (`_orbit_averages`).
    """
    pm = presenting_matrix(system)
    n, k = pm.n, pm.k
    if len(coeffs) != n * k:
        raise ValueError(f"need {n * k} coefficients, got {len(coeffs)}")
    coeffs = [Fraction(c) for c in coeffs]
    lcm, ints = system.grid
    den, weights = _scale_to_int([sum(coeffs[i::k]) for i in range(k)])
    values = [sum(map(mul, row, weights)) for row in ints]
    sums = [n // len(c) * sum(map(values.__getitem__, c)) for c in orbits(system)]
    return _orbit_averages(sums, n * den * lcm)[1]


def _orbit_averages(sums: Sequence[int], scale: int) -> tuple[tuple, Fraction | None]:
    """The average `sums[t] / scale` on each orbit t, and their common value.

    Every average is over the one denominator `scale`, so equal averages are
    equal integers: each distinct one becomes one Fraction, and the common
    value is None unless there is only one.
    """
    average = {v: Fraction(v, scale) for v in set(sums)}
    averages = tuple(map(average.__getitem__, sums))
    return averages, averages[0] if len(average) == 1 else None


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
    """Classify each original statistic and record its exact orbit averages.

    The averages are read off the d = 1 block sums of the orbit-start rows,
    which the invariant basis reads too: entry i of the row of an orbit O is
    n/|O| times the sum of g_i * L over O, so the average of g_i on O is that
    integer over n*L (`_orbit_averages`).  The invariance test compares each
    column of the integer grid with its image under T.
    """
    _require_valid(system)
    cycles = orbits(system)
    perm = system.perm
    lcm, ints = system.grid
    sums = _orbit_quotient(PresentingMatrix(system, ())).block_sums(1)
    verdicts = []
    for i, (values, column) in enumerate(zip(zip(*ints), zip(*sums))):
        invariant = tuple(map(values.__getitem__, perm)) == values
        averages, homomesy = _orbit_averages(column, system.period * lcm)
        verdicts.append(
            StatisticVerdict(system.stat_name(i), invariant, homomesy, averages)
        )
    return HomomesyReport(tuple(verdicts), tuple(len(o) for o in cycles))


def coboundary_witness(
    system: FiniteSystem, values: list[Fraction | int]
) -> tuple[Fraction, ...]:
    """A function g with f = g - g o T, for a 0-mesic value vector f.

    Returns g = -h/n for the weighted sum h = 1*f + 2*(f o T) + ... +
    n*(f o T^(n-1)).  Rejects inputs whose orbit sums are nonzero.  f is
    scaled once to integers over the lcm of its denominators, the integer
    core `_integer_witness` gives g over n times that lcm, and each g(y) is
    one Fraction built from it.
    """
    _require_valid(system)
    f = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    if len(f) != system.size:
        raise ValueError(f"value vector must have length {system.size}")
    den, ints = _scale_to_int(f)
    scale = system.period * den
    return tuple(Fraction(v, scale) for v in _integer_witness(system, ints, den))


def _integer_witness(system: FiniteSystem, ints: Sequence[int], den: int) -> list[int]:
    """The coboundary witness of f = ints / den, in integers over n * den:
    w with n * ints[x] = w[x] - w[T x], so g = w / (n * den).

    Reads one orbit at a time, and raises the ValueError of
    `coboundary_witness` on the first orbit whose sum is not 0.  On an orbit
    of length l, l*den*g is -sum over s < l of (s+1)*ints(T^s x) at its
    first element x, the zero orbit sum making that -h/n; w is that times
    n/l, and steps down by n * ints(y) from y to T y.
    """
    n = system.period
    w = [0] * len(ints)
    for orbit in orbits(system):
        total = sum(ints[x] for x in orbit)
        if total:
            raise ValueError(
                f"not 0-mesic: orbit starting at {orbit[0]} has sum "
                f"{Fraction(total, den)}"
            )
        value = -(n // len(orbit)) * sum(s * ints[x] for s, x in enumerate(orbit, 1))
        for x in orbit:
            w[x] = value
            value -= n * ints[x]
    return w


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
    image = list(range(system.size))  # T^j(x) at x
    for j in range(n):
        for i in range(k):
            base = system.stat_name(i)
            name = base if j == 0 else f"U^{j} {base}"
            named.append((name, tuple(grid[y][i] for y in image)))
        image = [system.perm[x] for x in image]
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
