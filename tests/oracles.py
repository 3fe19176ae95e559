"""Independent brute-force oracles: no shared code with the library paths.

Determinants here expand over all permutations (the library uses cofactor
recursion).  Rank is the size of the largest square submatrix with nonzero
determinant, or, for matrices too large for that, the number of pivots of
Gaussian elimination over Fraction (the library eliminates fraction-free on
integer rows, in a streaming echelon or by Gauss-Jordan).  Products in
Q(zeta_d) are schoolbook products of Fraction coefficient lists, reduced by
polynomial long division (the library multiplies integer vectors over a
common denominator), and M - M' subtracts whole column blocks of Fraction
presenting rows (the library subtracts the rotated integer rows over L, the
common denominator of the statistics).  The block sums and orbit averages
add Fractions one by one, as the library did before its report stages moved
to integer statistics; so do the orbit sums behind `homomesy_value` and
`zero_mesic_original_combos`, whose nullspace comes from a reduced row
echelon form over Fraction.  The degree-2 product extension steps along T
from each element for every shifted statistic (the library reads a table of
the powers of T).  The maps of the order polytope are the library's
former Fraction definitions (the library now runs them on homogeneous
integer coordinates).

`cyc_echelon` is the former Z[zeta] rank kernel of the library: it
eliminates on integer coefficient vectors and clears each pivot with its
adjugate, on the library's field helpers (the library now ranks over
Q(zeta) by the closure of the flat coefficient rows under x -> zeta*x).

The weighted block sums of the cyclotomic route are summed term by term in
`CycNumber` field arithmetic, which no report path uses (the library adds
integer slots of Z[x]/(x^d - 1), reduces them modulo Phi_d, and ranks the
integer coefficient vectors).

`reference_report` builds a whole `analyze` report from the paper's
definitions: the matrix of U on a basis of V, and each multiplicity from the
rank of Phi_e(U), a third spectrum route that shares nothing with the galois
table or the weighted block sums.

`planted_spectra` draws systems whose spectrum is known by construction,
from cyclotomic polynomials built here by exact long division of x^e - 1
(the library multiplies and divides power series by binomials 1 - x^e).
"""

import functools
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

from hypothesis import strategies as st

from dynspan.exact import CycNumber, _cyc_adjoint_int, _cyc_mul_int, _field


def perm_sign(perm) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def perm_det(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        term = None
        for i, j in enumerate(perm):
            term = rows[i][j] if term is None else term * rows[i][j]
        if term is None:
            term = Fraction(1)
        if perm_sign(perm) < 0:
            term = -term
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def gauss_pivots(rows) -> list[int]:
    """The pivot columns of Gaussian elimination over Fraction, ascending."""
    work = [[Fraction(v) for v in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            factor = work[i][c] / top[c]
            if factor:
                work[i] = [a - factor * b for a, b in zip(work[i], top)]
        pivots.append(c)
    return pivots


def gauss_rank(rows) -> int:
    """Rank: the number of pivots of Gaussian elimination over Fraction."""
    return len(gauss_pivots(rows))


def rotation_closure_rank(rows, shift) -> int:
    """dim of the smallest rotation-invariant span of the rows: the rank of
    every rotation r[j*shift:] + r[:j*shift] of every row."""
    width = len(rows[0]) if rows else 0
    if not width:
        return 0
    return gauss_rank(
        [r[j * shift :] + r[: j * shift] for r in rows for j in range(width // shift)]
    )


def brute_rank(rows) -> int:
    """Largest r with a nonsingular r x r submatrix."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for r in range(min(m, n), 0, -1):
        for rset in combinations(range(m), r):
            for cset in combinations(range(n), r):
                sub = [[rows[i][j] for j in cset] for i in rset]
                if perm_det(sub) != 0:
                    return r
    return 0


def cyclotomic_product(a, b, modulus):
    """a * b for polynomials in zeta, reduced modulo the monic `modulus`.

    `a` and `b` hold ascending rational coefficients; `modulus` holds the
    ascending integer coefficients of the minimal polynomial of zeta.  The
    result has len(modulus) - 1 Fraction coefficients.
    """
    phi = len(modulus) - 1
    prod = [Fraction(0)] * max(len(a) + len(b) - 1, phi)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for top in range(len(prod) - 1, phi - 1, -1):
        lead = prod[top]
        for t, m in enumerate(modulus):
            prod[top - phi + t] -= lead * m
    return tuple(prod[:phi])


def cyc_echelon(rows, ncols, order):
    """Streaming fraction-free echelon form over Z[zeta_order].

    Each row of integer coefficient vectors is reduced against the basis in
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
    basis = {}
    scaled = {}
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


def cyc_nullspace(rows, pivots, ncols, order):
    """The nullspace basis, normalised at the free columns, of echelon rows
    of integer coefficient vectors (`cyc_echelon`): each row is reduced to
    reduced row echelon form in `CycNumber` arithmetic, and the vector of
    free column f holds 1 at f and minus column f of that form at the pivots.
    """
    rref = []
    for row, p in zip(rows, pivots):
        entries = [CycNumber(order, e) for e in row]
        rref.append([x / entries[p] for x in entries])
    for t in range(len(rref) - 1, -1, -1):
        for u in range(t):
            factor = rref[u][pivots[t]]
            if factor:
                rref[u] = [a - factor * b for a, b in zip(rref[u], rref[t])]
    zero, one = CycNumber.zero(order), CycNumber.one(order)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[f] = one
        for t, p in enumerate(pivots):
            v[p] = -rref[t][f]
        out.append(tuple(v))
    return out


def shifted_difference(rows, n, k):
    """Rows of M - M' for presenting rows with n blocks of k columns.

    Block j of each row minus block j - 1, with block -1 = block n - 1.
    """
    return [
        [row[j * k + i] - row[((j - 1) % n) * k + i] for j in range(n) for i in range(k)]
        for row in rows
    ]


def zeta_matrix(perm, period, stats, exponent, elements):
    """Rows at `elements` of sum_m zeta_d^(-s*m) * g_i(T^m x), m = 0..period-1.

    zeta = e^(2 pi i exponent / period) = zeta_d^s, with d = period / g and
    s = exponent / g for g = gcd(exponent, period).  Each term is a
    `CycNumber` root of unity times a Fraction, added one by one while
    stepping along T from x.
    """
    g = math.gcd(exponent, period)
    d, s = period // g, exponent // g
    k = len(stats[0]) if stats else 0
    rows = []
    for x in elements:
        row, y = [CycNumber.zero(d)] * k, x
        for m in range(period):
            weight = CycNumber.root(d, -s * m)
            row = [acc + weight * stats[y][i] for i, acc in enumerate(row)]
            y = perm[y]
        rows.append(row)
    return rows


def block_sums(rows, n, k, d):
    """Rows of the T^d-invariant matrix, added as Fractions.

    Entry r*k + i of a row adds its entries (r + m*d)*k + i, m = 0..n/d-1.
    """
    return [
        [
            sum((row[(r + m * d) * k + i] for m in range(n // d)), Fraction(0))
            for r in range(d)
            for i in range(k)
        ]
        for row in rows
    ]


def invariant_matrix(rows, n, k):
    """Rows of the sum of the n column blocks, added as Fractions."""
    return block_sums(rows, n, k, 1)


def _cycles(perm):
    """The cycles of perm, by smallest member, each from that member forward."""
    cycles, seen = [], set()
    for start in range(len(perm)):
        if start not in seen:
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = perm[x]
            cycles.append(cycle)
    return cycles


def _orbit_averages(values, cycles):
    return tuple(
        sum((values[x] for x in cycle), Fraction(0)) / len(cycle) for cycle in cycles
    )


def statistic_report(perm, stats):
    """(invariant, homomesy, orbit averages) of each statistic, over Q.

    Orbits are listed by smallest member, each from that member forward.
    """
    cycles = _cycles(perm)
    out = []
    for i in range(len(stats[0]) if stats else 0):
        values = [row[i] for row in stats]
        invariant = all(values[perm[x]] == values[x] for x in range(len(perm)))
        averages = _orbit_averages(values, cycles)
        homomesy = averages[0] if len(set(averages)) == 1 else None
        out.append((invariant, homomesy, averages))
    return out


def homomesy_value(perm, period, stats, coeffs):
    """Common orbit average of sum coeffs[j*k + i] * g_i o T^j, or None.

    The value at x is the presenting row at x times coeffs, added as
    Fractions along the T-orbit of x.
    """
    k = len(stats[0]) if stats else 0
    values = []
    for x in range(len(perm)):
        total, y = Fraction(0), x
        for j in range(period):
            for i in range(k):
                total += Fraction(coeffs[j * k + i]) * stats[y][i]
            y = perm[y]
        values.append(total)
    averages = _orbit_averages(values, _cycles(perm))
    return averages[0] if len(set(averages)) == 1 else None


def rref(rows, ncols):
    """(work, pivots): the reduced row echelon form over Fraction, and its
    pivot columns, which are the greedy left-to-right independent columns.
    Row t of `work` holds, at column c, the coefficient of column pivots[t]
    in column c."""
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = [a - row[c] * b for a, b in zip(row, work[r])]
        pivots.append(c)
    return work, pivots


def nullspace(rows, ncols):
    """Basis of {v : rows * v = 0}: one vector per free column of the reduced
    row echelon form, 1 there and 0 at every other free column."""
    work, pivots = rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, c in zip(work, pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return basis


def zero_mesic_original_combos(perm, stats, k):
    """Basis of {a in Q^k : sum a_i g_i sums to zero on every orbit}."""
    sums = [
        [sum((stats[x][i] for x in cycle), Fraction(0)) for i in range(k)]
        for cycle in _cycles(perm)
    ]
    return nullspace(sums, k)


def extend_products(perm, period, stats, names):
    """(name, value vector) of each statistic of the degree-2 extension.

    The shifted statistics g_i o T^j, j = 0..period-1, each value found by
    stepping j times forward from x, then the product of each pair a <= b of
    them, in that order; of equal value vectors only the first is kept.
    """
    k = len(stats[0]) if stats else 0
    shifted = []
    for j in range(period):
        for i in range(k):
            values = []
            for x in range(len(perm)):
                y = x
                for _ in range(j):
                    y = perm[y]
                values.append(Fraction(stats[y][i]))
            name = names[i] if j == 0 else f"U^{j} {names[i]}"
            shifted.append((name, tuple(values)))
    products = [
        (f"{name_a} * {name_b}", tuple(u * v for u, v in zip(a, b)))
        for index, (name_a, a) in enumerate(shifted)
        for name_b, b in shifted[index:]
    ]
    kept, seen = [], set()
    for name, values in shifted + products:
        if values not in seen:
            seen.add(values)
            kept.append((name, values))
    return kept


# the maps of the order polytope of the 2 x 2 grid, over Fraction


def _frac4(p):
    if len(p) != 4:
        raise ValueError("expected a 4-tuple")
    return tuple(v if type(v) is Fraction else Fraction(v) for v in p)


def in_order_polytope(p):
    x1, x2, x3, x4 = _frac4(p)
    return 0 <= x1 <= x2 <= x4 <= 1 and x1 <= x3 <= x4


def nabla(p):
    x1, x2, x3, x4 = _frac4(p)
    return (x1, x2 - x1, x3 - x1, x4 - max(x2, x3))


def delta_inv(q):
    y1, y2, y3, y4 = _frac4(q)
    return (y1 + max(y2, y3) + y4, y2 + y4, y3 + y4, y4)


def theta(z):
    z1, z2, z3, z4 = _frac4(z)
    one = Fraction(1)
    return (one - z1, one - z2, one - z3, one - z4)


def pl_rowmotion(p):
    if not in_order_polytope(p):
        raise ValueError(f"point {p} violates the order-polytope constraints")
    return theta(delta_inv(nabla(p)))


def extend_point(p):
    v = _frac4(p)
    return v + (max(v[1], v[2]), Fraction(1))


def _divide_exactly(num, den):
    """num / den for ascending integer polynomials, den monic, no remainder."""
    num = list(num)
    terms = [(t, c) for t, c in enumerate(den) if c]
    quotient = [0] * (len(num) - len(den) + 1)
    for top in range(len(quotient) - 1, -1, -1):
        lead = quotient[top] = num[top + len(den) - 1]
        if lead:
            for t, c in terms:
                num[top + t] -= lead * c
    assert not any(num), "not an exact division"
    return quotient


@functools.cache
def cyclotomic_polynomial(e):
    """Ascending coefficients of Phi_e: x^e - 1 over Phi_d for each d | e, d < e."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _divide_exactly(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def planted_statistic(length, killed):
    """Values on one T-cycle of `length` whose span under T has a known spectrum.

    The functions on the cycle are Q[x]/(x^L - 1), with T acting as
    multiplication by x.  The value at the t-th point is the coefficient of
    x^t in G = prod_{e in killed} Phi_e * (x^2 + 2), folded mod x^L - 1.  As
    x^2 + 2 has no root of unity as a root, the span is the ideal generated by
    gcd(G, x^L - 1) = prod_{e in killed} Phi_e, so the primitive e-th roots
    of unity have multiplicity 1 for each e | L not in `killed`, and 0 for
    each e in `killed`.
    """
    poly = [2, 0, 1]
    for e in killed:
        factor = cyclotomic_polynomial(e)
        product = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        poly = product
    values = [0] * length
    for t, c in enumerate(poly):
        values[t % length] += c
    return values


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def planted_spectra(draw, periods=(1, 2, 3, 4, 5, 6, 8, 9, 10, 12)):
    """(perm, period, stats, mults): a system and its spectrum, by design.

    Statistic i is `planted_statistic` on cycle i and zero elsewhere, so V is
    the direct sum of the cycles' spans and the multiplicity of each
    primitive e-th root counts the cycles i with e | L_i and e not killed on
    i.  Idle cycles carry no statistic, appended rational combinations of the
    planted statistics leave V unchanged, and so do the seeded relabelling
    and the rescaling of every statistic by a nonzero rational.  With at most
    5 statistics and period at most 12, every width n*k is at most 60.
    """
    n = draw(st.sampled_from(periods))
    lengths = draw(st.lists(st.sampled_from(_divisors(n)), min_size=1, max_size=3))
    killed = [
        draw(st.sets(st.sampled_from(_divisors(length)))) for length in lengths
    ]
    idle = draw(st.lists(st.sampled_from(_divisors(n)), max_size=2))
    small = st.fractions(-3, 3, max_denominator=3)
    combos = draw(
        st.lists(st.lists(small, min_size=len(lengths), max_size=len(lengths)),
                 max_size=2)
    )
    scales = draw(
        st.lists(small.filter(bool), min_size=len(lengths) + len(combos),
                 max_size=len(lengths) + len(combos))
    )
    seed = draw(st.integers(0, 2**32 - 1))

    cycles, size = [], 0
    for length in lengths + idle:
        cycles.append(list(range(size, size + length)))
        size += length
    columns = []
    for cycle, dead in zip(cycles, killed):
        column = [Fraction(0)] * size
        for x, v in zip(cycle, planted_statistic(len(cycle), sorted(dead))):
            column[x] = Fraction(v)
        columns.append(column)
    planted = list(columns)
    for coeffs in combos:
        columns.append(
            [sum(c * col[x] for c, col in zip(coeffs, planted)) for x in range(size)]
        )
    columns = [[s * v for v in col] for s, col in zip(scales, columns)]

    sigma = list(range(size))
    random.Random(seed).shuffle(sigma)
    perm, stats = [0] * size, [()] * size
    for cycle in cycles:
        for t, x in enumerate(cycle):
            perm[sigma[x]] = sigma[cycle[(t + 1) % len(cycle)]]
            stats[sigma[x]] = tuple(col[x] for col in columns)

    by_root = {
        e: sum(1 for length, dead in zip(lengths, killed)
               if length % e == 0 and e not in dead)
        for e in _divisors(n)
    }
    mults = tuple(by_root[n // math.gcd(j, n)] for j in range(n))
    return perm, n, stats, mults


def _json_rational(q):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _matmul(a, b):
    """a * b for Fraction matrices given as lists of rows."""
    cols = list(zip(*b))
    return [
        [sum((x * y for x, y in zip(row, col) if x), Fraction(0)) for col in cols]
        for row in a
    ]


def reference_report(doc):
    """The `analyze --output json` payload of a system document, from the
    paper's definitions in Fraction arithmetic.

    V is spanned by the columns x -> g_i(T^j x), column j*k + i.  Its basis is
    the greedy independent columns, the pivots of one reduced row echelon
    form, which also gives every column's coordinates in that basis.  U maps
    column j*k + i to column (j+1)*k + i (mod kn), so the matrix A of U in
    the basis is read off the same form.  U^n = I, so U is diagonalisable and
    the primitive e-th roots of unity, Galois conjugates, share one
    multiplicity m_e = (dim V - rank Phi_e(A)) / phi(e), for each e | n:
    neither the table of T^d-invariant dimensions of the galois route nor
    the weighted block sums of the cyclotomic route.  The invariant basis is
    the greedy independent columns of the block sum over j, on all of X; the
    0-mesic dimension is `gauss_rank` of M - M' on all of X; the homomesies
    come from `statistic_report`, and flatness from the spectrum.
    """
    perm, n = doc["perm"], doc["period"]
    stats = [[Fraction(v) for v in row] for row in doc["stats"]]
    size, k = len(perm), len(stats[0]) if stats else 0
    names = doc.get("stat_names") or []
    width = k * n

    # rows[x][j*k + i] = g_i(T^j x), stepping along T from x
    rows = []
    for x in range(size):
        row, y = [], x
        for _ in range(n):
            row += stats[y]
            y = perm[y]
        rows.append(row)
    work, pivots = rref(rows, width)
    dim = len(pivots)
    matrix = [[work[t][(c + k) % width] for c in pivots] for t in range(dim)]

    powers = [[[Fraction(int(s == t)) for t in range(dim)] for s in range(dim)]]
    mult = {}
    for e in _divisors(n):
        phi = cyclotomic_polynomial(e)
        while len(powers) < len(phi):
            powers.append(_matmul(powers[-1], matrix))
        value = [
            [sum(c * p[s][t] for c, p in zip(phi, powers)) for t in range(dim)]
            for s in range(dim)
        ]
        nullity = dim - gauss_rank(value)
        assert nullity % (len(phi) - 1) == 0, f"nullity {nullity} at e = {e}"
        mult[e] = nullity // (len(phi) - 1)
    mults = [mult[n // math.gcd(j, n)] for j in range(n)]

    sums = invariant_matrix(rows, n, k)
    invariant_pivots = rref(sums, k)[1]
    verdicts = statistic_report(perm, stats)
    nonzero = [m for m in mults[1:] if m]
    return {
        "dim_V": dim,
        "spectrum": [
            {"exponent": j, "root_order": n // math.gcd(j, n), "multiplicity": m}
            for j, m in enumerate(mults)
        ],
        "invariant_basis": [
            [_json_rational(row[i]) for row in sums] for i in invariant_pivots
        ],
        "zero_mesic_dimension": gauss_rank(shifted_difference(rows, n, k)),
        "homomesies": [
            {
                "name": names[i] if i < len(names) else f"g{i + 1}",
                "verdict": "invariant" if invariant
                else "c-mesic" if homomesy is not None
                else "neither",
                "c": None if homomesy is None else _json_rational(homomesy),
            }
            for i, (invariant, homomesy, _) in enumerate(verdicts)
        ],
        "flatness": None if n < 2 else {
            "min_nonunital": min(nonzero) if nonzero else None,
            "max_nonunital": max(nonzero) if nonzero else None,
            "ratio": _json_rational(Fraction(max(nonzero), min(nonzero)))
            if nonzero else None,
        },
    }
