"""Self-verification suite: recomputes every documented result exactly.

Each block checks one cluster of claims (spectra of the rotation families,
chain homomesies, the distinct-rotation counterexample, structural rank
identities, coboundary roundtrips, the zoned determinant, the period-5
monomial action, the polytope lifts, and the product extension).  Blocks
return CheckResult rows; the CLI renders them and pytest gates on them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact import CycNumber, ExactMatrix, _int_product, _streaming_echelon
from .families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
    nesw_det_closed_form,
    nesw_entries,
    nesw_matrix,
    nesw_recurrence_check,
)
from .linearize import (
    PresentingMatrix,
    _integer_witness,
    _orbit_quotient,
    _orbit_selection,
    coboundary_witness,
    extend_products,
    homomesy_value,
    invariant_matrix,
    presenting_matrix,
    spectrum,
    zeta_matrix,
)
from .lyness import (
    _orbit_log_sum,
    lyness_homomesy_check,
    lyness_map,
    lyness_matrix,
    lyness_orbit,
    lyness_orbit_sum_operator,
)
from .polytope import (
    _draw_point,
    _returns,
    _returns_after,
    extend_point,
    lift_consistency_check,
    lifted_delta_inv,
    lifted_nabla,
    lifted_theta,
    pl_rowmotion,
    polytope_vertices,
)
from .system import FiniteSystem, minimal_period, orbits

__all__ = ["CheckResult", "BLOCK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    block: str
    name: str
    expected: str
    got: str
    passed: bool


def _check(block: str, name: str, expected, got) -> CheckResult:
    return CheckResult(block, name, str(expected), str(got), expected == got)


def _identity_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _random_pair(rng: random.Random) -> tuple[int, int]:
    """(num, den) of a random rational num / den, num in -9..9, den in 1..5."""
    return rng.randint(-9, 9), rng.randint(1, 5)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(*_random_pair(rng))


def _integer_weights(pairs: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """(den, weights) with num / d = weight / den for each (num, d) of `pairs`,
    den the lcm of the d.  The pairs need not be in lowest terms, so den is a
    positive multiple c of the scale of `_scale_to_int` on their Fractions,
    and each weight c times its integer."""
    den = math.lcm(*(d for _, d in pairs))
    return den, [num * (den // d) for num, d in pairs]


def _mults(system: FiniteSystem, method: str) -> tuple[int, ...] | str:
    """The multiplicities by one route, or the ArithmeticError that the galois
    route raises on an impossible table, so that it fails a check, not the block."""
    try:
        return spectrum(system, method).mults
    except ArithmeticError as exc:
        return f"ArithmeticError: {exc}"


def _route_checks(block: str, name: str, system: FiniteSystem, want) -> list[CheckResult]:
    """The multiplicities of `system` by both routes against `want`, each
    check named by `name` with its `{method}` slot filled.  The system is
    built once, so the routes share its memo."""
    return [
        _check(block, name.format(method=method), want, _mults(system, method))
        for method in ("galois", "cyclotomic")
    ]


# ---------------------------------------------------------------------------


def _block_rotation_two() -> list[CheckResult]:
    out = []
    for k in range(2, 13):
        want = ((k + 2) // 2, (k + 1) // 2)
        name = f"n=2 k={k} {{method}}"
        out += _route_checks("rotation-two", name, multiset_rotation(2, k), want)
    return out


def _block_rotation_general() -> list[CheckResult]:
    out = []
    for n in range(3, 7):
        for k in range(2, 7):
            want = tuple(k // 2 + 1 if j == 0 else k for j in range(n))
            name = f"n={n} k={k} {{method}}"
            out += _route_checks("rotation-general", name, multiset_rotation(n, k), want)
    return out


def _block_chain() -> list[CheckResult]:
    out = []
    for n in range(3, 6):
        for k in range(2, 6):
            system = chain_rowmotion(n, k)
            out.append(
                _check("chain", f"n={n} k={k} order", k + 1, minimal_period(system))
            )
            out.append(
                _check(
                    "chain",
                    f"n={n} k={k} dim V",
                    k + 1,
                    _full_row_rank(presenting_matrix(system).rows),
                )
            )
            name = f"n={n} k={k} {{method}} spectrum"
            out += _route_checks("chain", name, system, (1,) * (k + 1))
            kn = k * (k + 1)
            cs = []
            for i in range(1, k + 1):
                coeffs = [Fraction(0)] * kn
                coeffs[i - 1] = Fraction(1)
                cs.append(homomesy_value(system, coeffs))
            want_cs = [Fraction(i * (n - 1), k + 1) for i in range(1, k + 1)]
            out.append(_check("chain", f"n={n} k={k} orbit means", want_cs, cs))
    return out


def _block_distinct() -> list[CheckResult]:
    system = distinct_multiset_rotation(4, 2)
    return _route_checks("distinct", "n=4 k=2 {method}", system, (2, 1, 2, 1))


def _structural_systems():
    for n in range(2, 9):
        for k in range(2, 7):
            yield f"multiset({n},{k})", multiset_rotation(n, k)
    for n in range(2, 9):
        for k in range(2, 7):
            yield f"chain({n},{k})", chain_rowmotion(n, k)
    for n in range(2, 9):
        for k in range(2, min(6, n) + 1):
            yield f"distinct({n},{k})", distinct_multiset_rotation(n, k)
    yield "negation", negation_system()


def _full_row_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows, by a streaming echelon, without rotations, of
    their transpose.

    On the presenting matrices of the sweeps, the k*n rows of the transpose
    are far fewer than |X|, and the ranks are deficient, so the untransposed
    |X| rows would each be reduced against the whole basis.  On the
    `structural` sweep, the transposes take 0.5-0.6 s against 1.4 s for the
    rows (2-vCPU VM).
    """
    return len(_streaming_echelon(zip(*rows), len(rows))[0])


def _full_row_ranks(pm: PresentingMatrix) -> tuple[int, ...]:
    """Ranks of the presenting matrix, the invariant matrix and M - M' at `pm`.

    Each is `_full_row_rank` of integer rows built from those of `pm`
    (every statistic times L, which changes no rank), not the
    rotation closure of one row per T-orbit that the spectra use.
    """
    rows, k = pm.rows, pm.k
    matrices = (
        rows,
        pm.block_sums(1),
        [[a - b for a, b in zip(row, row[-k:] + row[:-k])] for row in rows],
    )
    return tuple(map(_full_row_rank, matrices))


def _block_structural() -> list[CheckResult]:
    out = []
    for name, system in _structural_systems():
        pm = presenting_matrix(system)
        rank_full, rank_inv, rank_zero = _full_row_ranks(pm)
        mults_g = _mults(system, "galois")
        mults_c = _mults(system, "cyclotomic")
        dim_v = sum(mults_g) if isinstance(mults_g, tuple) else mults_g
        out.append(
            _check(
                "structural",
                f"{name} rank split",
                rank_full,
                rank_inv + rank_zero,
            )
        )
        out.append(
            _check(
                "structural",
                f"{name} methods agree, sum = dim V",
                (mults_g, rank_full),
                (mults_c, dim_v),
            )
        )
        # the cyclotomic route ranks one exponent per gcd class; rank every
        # exponent here, on the orbits that route keeps, to test the gcd claim
        # itself.  The check above holds both routes to the full-row rank of
        # all of X, so a selection that lost a row already fails the block.
        kept = _orbit_selection(_orbit_quotient(pm))
        classes_ok = isinstance(mults_c, tuple) and all(
            zeta_matrix(kept, j).rank() == m for j, m in enumerate(mults_c)
        )
        out.append(_check("structural", f"{name} gcd classes", True, classes_ok))
    return out


def _coboundary_cases():
    yield "multiset(2,3)", multiset_rotation(2, 3)
    yield "multiset(2,4)", multiset_rotation(2, 4)
    yield "multiset(3,2)", multiset_rotation(3, 2)
    yield "multiset(3,3)", multiset_rotation(3, 3)
    yield "multiset(4,3)", multiset_rotation(4, 3)
    yield "chain(3,3)", chain_rowmotion(3, 3)
    yield "chain(4,2)", chain_rowmotion(4, 2)
    yield "distinct(4,2)", distinct_multiset_rotation(4, 2)
    yield "negation", negation_system()


def _block_coboundary() -> list[CheckResult]:
    """f = g - g o T for 0-mesic f: 100 random f of V per system, each
    witnessed by the integer core of `coboundary_witness` and checked exactly.

    Each coefficient is drawn as an integer pair (`_random_pair`), and the
    pairs of a trial are scaled once to integer weights (`_integer_weights`).
    Every trial runs in integers: f is an integer vector over one scale, and
    `_integer_witness` gives w over n times it, so the check is
    n * f(x) = w(x) - w(T x).  Fractions are built only on the first trial,
    for its check against the sum over the statistics and its call of the
    public `coboundary_witness`, which must return the core's w as Fractions.
    """
    out = []
    rng = random.Random(20240)
    for name, system in _coboundary_cases():
        rows = presenting_matrix(system).rows
        cycles = orbits(system)
        perm = system.perm
        n, k = system.period, system.num_stats
        # column j*k + i of the integer rows is g_i o T^j times L
        lcm = system.grid[0]
        good = 0
        for trial in range(100):
            pairs = [_random_pair(rng) for _ in range(n * k)]
            # the coefficients are scaled once to integer weights; the
            # combination at x is (rows[x] . weights) / den, den that scale times L
            den, weights = _integer_weights(pairs)
            den *= lcm
            ints = [sum(map(mul, row, weights)) for row in rows]
            in_v = True
            if trial == 0:
                # the first trial checks that this is the function sum
                # c_{j,i} g_i o T^j of V, summed in Fractions from the statistics
                coeffs = [Fraction(*c) for c in pairs]
                in_v = all(
                    Fraction(v, den) == _shifted_combination(system, coeffs, x)
                    for x, v in enumerate(ints)
                )
            # less their orbit means, the values are f / (n * den), f integers:
            # each orbit length divides n
            f = [n * v for v in ints]
            for orbit in cycles:
                mean = n // len(orbit) * sum(ints[x] for x in orbit)
                for x in orbit:
                    f[x] -= mean
            scale = n * den
            # f / scale = g - g o T, for g = w / (n * scale)
            w = _integer_witness(system, f, scale)
            if trial == 0:
                public = coboundary_witness(system, [Fraction(v, scale) for v in f])
                in_v = in_v and public == tuple(Fraction(v, n * scale) for v in w)
            if in_v and all(n * f[x] == w[x] - w[perm[x]] for x in range(system.size)):
                good += 1
        out.append(_check("coboundary", f"{name} roundtrips", "100/100", f"{good}/100"))
    return out


def _shifted_combination(
    system: FiniteSystem, coeffs: Sequence[Fraction], x: int
) -> Fraction:
    """sum_{j,i} coeffs[j*k + i] * g_i(T^j x), stepping along T from x."""
    k, total = system.num_stats, Fraction(0)
    for j in range(system.period):
        total += sum(map(mul, coeffs[j * k : (j + 1) * k], system.stats[x]))
        x = system.perm[x]
    return total


def _block_nesw() -> list[CheckResult]:
    out = []
    rng = random.Random(4242)
    for k in range(2, 9):
        ok = 0
        for _ in range(20):
            vals = [_random_fraction(rng) for _ in range(4)]
            closed = nesw_det_closed_form(k, *vals)
            brute = nesw_matrix(k, *vals).det_cofactor()
            if closed == brute:
                ok += 1
        out.append(_check("nesw", f"k={k} closed form = cofactor", "20/20", f"{ok}/20"))
    for k in range(3, 9):
        ok = True
        for _ in range(5):
            vals = [_random_fraction(rng) for _ in range(4)]
            while vals[1] == 0:
                vals[1] = _random_fraction(rng)
            ok = ok and nesw_recurrence_check(k, *vals)
        out.append(_check("nesw", f"k={k} recurrence", True, ok))
    for n in range(2, 11):
        ok = True
        for j in range(1, n):
            ent = nesw_entries(n, j)
            d = ent.N.order
            s = j // math.gcd(j, n)
            zeta = CycNumber.root(d, s)
            zeta_last = CycNumber.root(d, (s * (n - 1)) % d)
            one = CycNumber.one(d)
            lhs1 = (one - zeta) * (ent.S - ent.N)
            rhs1 = (one - zeta_last) * n
            lhs2 = (one - zeta) * (ent.E - ent.W)
            rhs2 = (zeta_last - one) * (n - 2)
            ok = ok and lhs1 == rhs1 and lhs2 == rhs2
        out.append(_check("nesw", f"n={n} root-sum identities", True, ok))
    two = nesw_entries(2, 1)
    out.append(_check("nesw", "n=2 E=W", True, two.E == two.W))
    return out


def _block_lyness() -> list[CheckResult]:
    """The period-5 monomial action of the Lyness map.

    The numeric check keeps the first 100 random seeds whose orbit stays in
    the domain, each orbit walked once: a seed is drawn as two integer pairs
    and kept when `_orbit_log_sum`, the integer core of
    `lyness_numeric_orbit_sum`, does not raise the domain ValueError, and so
    is its sum.  The orbit-sum operator I + M + ... + M^4 is summed here from
    the block's own M, and checked against the library's, which is built
    once per process and read by `lyness_homomesy_check` too.  Both are
    integer rows; the orbit-sum checks compare tuples of Fractions, as the
    pinned check list prints them.
    """
    out = []
    m = lyness_matrix()
    powers = [_identity_rows(5)]
    for _ in range(5):
        powers.append(_int_product(powers[-1], m))
    out.append(_check("lyness", "matrix order 5", True, powers[5] == powers[0]))
    # the ranks of M - zeta^t I for t = 0..4, over Q for t = 0
    ranks = [
        ExactMatrix.from_rows(
            [[v - (root if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(m)]
        ).rank()
        for root in [1] + [CycNumber.root(5, t) for t in range(1, 5)]
    ]
    out.append(_check("lyness", "rank(M - I)", 4, ranks[0]))
    out.append(
        _check("lyness", "primitive-root multiplicities", [1, 1, 1, 1], [5 - r for r in ranks[1:]])
    )

    total = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*powers[:5]))
    log_stat = (-2, 0, 1, 0, 0)
    out.append(
        _check(
            "lyness",
            "orbit sum of (-2,0,1,0,0)",
            (Fraction(0),) * 5,
            tuple(map(Fraction, _int_product(total, log_stat))),
        )
    )
    out.append(
        _check(
            "lyness",
            "library check of (-2,0,1,0,0)",
            True,
            lyness_homomesy_check(log_stat),
        )
    )

    orbit = lyness_orbit(1, 1)
    want_orbit = [(1, 1), (1, 2), (2, 3), (3, 2), (2, 1)]
    out.append(
        _check(
            "lyness",
            "orbit of (1,1)",
            [tuple(map(Fraction, p)) for p in want_orbit],
            orbit,
        )
    )
    out.append(
        _check("lyness", "period 5 at (1,1)", (Fraction(1), Fraction(1)), lyness_map(*orbit[-1]))
    )

    rng = random.Random(55)
    sums = []
    while len(sums) < 100:
        x = rng.randint(-20, 20), rng.randint(1, 10)
        y = rng.randint(-20, 20), rng.randint(1, 10)
        try:
            sums.append(_orbit_log_sum(log_stat, *x, *y))
        except ValueError:  # a seed outside the domain
            continue
    worst = max(map(abs, sums))
    out.append(
        _check("lyness", "numeric orbit sums < 1e-9 (100 seeds)", True, worst < 1e-9)
    )

    w = _int_product(total, (1, 0, 0, 0, 0))
    want, got = (tuple(map(Fraction, v)) for v in ((-1, -1, 1, 1, 1), w))
    out.append(_check("lyness", "orbit sum of e1", want, got))
    image = tuple(map(Fraction, _int_product(m, w)))
    out.append(_check("lyness", "e1 orbit sum is invariant", got, image))
    out.append(
        _check(
            "lyness",
            "orbit-sum operator matches matrix",
            True,
            lyness_orbit_sum_operator() == total,
        )
    )
    return out


def _block_lift() -> list[CheckResult]:
    """The 6x6 lifts of piecewise-linear rowmotion (Einstein-Propp).

    The 1000 random points are drawn and iterated in homogeneous integer
    coordinates (`_draw_point`, `_returns`), the points of
    `random_polytope_point`; the vertices, and the composite lift at them,
    go through the public maps.  The lifts are integer rows.
    """
    out = []
    full = _int_product(_int_product(lifted_theta(), lifted_delta_inv()), lifted_nabla())
    square = _int_product(full, full)
    fourth_is_identity = _int_product(square, square) == _identity_rows(6)
    out.append(_check("lift", "(H*D*N)^4 = I", True, fourth_is_identity))
    rng = random.Random(777)
    points = [_draw_point(rng) for _ in range(1000)]
    order_ok = all(_returns(x, den, 4) for x, den in points) and all(
        _returns_after(p, 4) for p in polytope_vertices()
    )
    out.append(
        _check("lift", "rowmotion^4 = id (1000 random + vertices)", True, order_ok)
    )
    out.append(
        _check(
            "lift",
            "extend o map = lift * extend (1000 random)",
            True,
            lift_consistency_check(1000, seed=778),
        )
    )
    vertex_ok = True
    for p in polytope_vertices():
        if extend_point(pl_rowmotion(p)) != _int_product(full, extend_point(p)):
            vertex_ok = False
    out.append(_check("lift", "composite lift at vertices", True, vertex_ok))
    return out


def _block_products() -> list[CheckResult]:
    out = []
    for k in range(2, 6):
        system = multiset_rotation(2, k)
        extended = extend_products(system)
        ones = [sum(row, Fraction(0)) for row in system.stats]
        target = [ones[x] * ones[system.perm[x]] for x in range(system.size)]
        constant_on_orbits = all(
            len({target[x] for x in orbit}) == 1
            for orbit in orbits(system)
        )
        pm = presenting_matrix(extended)
        m1 = invariant_matrix(pm)
        augmented = ExactMatrix.from_rows(
            [list(row) + [target[x]] for x, row in enumerate(m1.entries)]
        )
        # the target lies in the invariant span, and that span has the size
        # that the full rows alone give it: dim V less the 0-mesic rank
        rank_full, _, rank_zero = _full_row_ranks(pm)
        member = augmented.rank() == m1.rank() == rank_full - rank_zero
        out.append(
            _check(
                "products",
                f"k={k} count(1 in x)*count(1 in Tx) invariant",
                (True, True),
                (constant_on_orbits, member),
            )
        )
    return out


BLOCK_NAMES: dict[str, object] = {
    "rotation-two": _block_rotation_two,
    "rotation-general": _block_rotation_general,
    "chain": _block_chain,
    "distinct": _block_distinct,
    "structural": _block_structural,
    "coboundary": _block_coboundary,
    "nesw": _block_nesw,
    "lyness": _block_lyness,
    "lift": _block_lift,
    "products": _block_products,
}


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run all (or one named block of) the verification checks."""
    if only is not None and only not in BLOCK_NAMES:
        raise ValueError(
            f"unknown check block {only!r}; available: {', '.join(BLOCK_NAMES)}"
        )
    out: list[CheckResult] = []
    for name, func in BLOCK_NAMES.items():
        if only is not None and name != only:
            continue
        out.extend(func())
    return out
