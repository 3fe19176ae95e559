"""Every `verify-paper` block has checks that can fail: each test breaks one
library function that a block relies on, by monkeypatching, and expects a
failed check, not an exception."""

import random
from fractions import Fraction

import oracles
from dynspan import linearize, lyness, verify
from dynspan.exact import _scale_to_int
from dynspan.linearize import (
    PresentingMatrix,
    _orbit_quotient,
    _orbit_selection,
    presenting_matrix,
    spectrum,
)
from dynspan.system import orbits
from dynspan.verify import run_checks


def failed_checks(block: str) -> list[str]:
    return [r.name for r in run_checks(block) if not r.passed]


def break_block_sums(monkeypatch, wrong) -> None:
    """Replace each T^d block sum, d < n, by `wrong(sums, rows, width)`."""
    real = PresentingMatrix.block_sums

    def patched(self, d):
        sums = real(self, d)
        return sums if d == self.n else wrong(sums, self.rows, d * self.k)

    monkeypatch.setattr(PresentingMatrix, "block_sums", patched)


def last_block_dropped(sums, rows, w):
    return [[v - r[len(r) - w + c] for c, v in enumerate(s)] for s, r in zip(sums, rows)]


def last_block_subtracted(sums, rows, w):
    return [[v - 2 * r[len(r) - w + c] for c, v in enumerate(s)] for s, r in zip(sums, rows)]


def test_block_sums_pass_unbroken():
    for block in ("rotation-general", "products", "chain"):
        assert failed_checks(block) == []


def test_a_dropped_block_fails_rotation_general(monkeypatch):
    break_block_sums(monkeypatch, last_block_dropped)
    results = {r.name: r for r in run_checks("rotation-general")}
    assert not results["n=3 k=5 galois"].passed
    assert not results["n=3 k=5 cyclotomic"].passed
    # where the galois route's Moebius inversion finds no multiplicity, that
    # fails the check, and the block still returns
    assert not results["n=3 k=3 galois"].passed
    assert results["n=3 k=3 galois"].got.startswith("ArithmeticError")


def test_a_subtracted_block_fails_rotation_general_and_products(monkeypatch):
    break_block_sums(monkeypatch, last_block_subtracted)
    assert failed_checks("rotation-general")
    # the invariant matrix of the extension loses the products' orbit sums
    assert "k=2 count(1 in x)*count(1 in Tx) invariant" in failed_checks("products")


def test_a_wrong_orbit_average_fails_the_chain_orbit_means(monkeypatch):
    real = linearize._orbit_averages

    def last_orbit_sum_off_by_one(sums, scale):
        return real([*sums[:-1], sums[-1] + 1], scale)

    monkeypatch.setattr(linearize, "_orbit_averages", last_orbit_sum_off_by_one)
    failed = failed_checks("chain")
    assert failed and all(name.endswith("orbit means") for name in failed)


def test_a_dropped_block_fails_structural_without_an_exception(monkeypatch):
    # the galois route's Moebius inversion raises on some systems; that is a
    # failed check of the block, as in the four spectrum blocks
    break_block_sums(monkeypatch, last_block_dropped)
    results = run_checks("structural")
    failed = [r for r in results if not r.passed]
    assert failed
    assert any("ArithmeticError" in r.expected for r in failed)
    assert any(r.name.endswith("rank split") for r in failed)


def test_a_dropped_block_fails_products(monkeypatch):
    # the d = 1 sum of each n = 2 extension is then its block 0, whose span
    # holds every statistic, so only the count from the full rows, dim V less
    # the 0-mesic rank, can tell that the invariant span is too large
    break_block_sums(monkeypatch, last_block_dropped)
    assert failed_checks("products")


def test_a_lost_orbit_fails_rotation_two_on_both_routes(monkeypatch):
    # both routes read one row per T-orbit; without the last orbit V shrinks
    real = linearize._orbit_quotient

    def last_orbit_lost(pm):
        return PresentingMatrix(pm.system, real(pm).elements[:-1])

    monkeypatch.setattr(linearize, "_orbit_quotient", last_orbit_lost)
    results = {r.name: r for r in run_checks("rotation-two")}
    assert not results["n=2 k=2 galois"].passed
    assert not results["n=2 k=2 cyclotomic"].passed
    assert results["n=2 k=2 cyclotomic"].got == "(1, 1)"


def test_a_wrong_reduction_mod_phi_fails_the_distinct_cyclotomic_route(monkeypatch):
    # the weighted block sums keep their coefficients past degree phi(d)
    # unreduced, and the galois route, which never reduces mod Phi_d, holds
    monkeypatch.setattr(linearize, "_cyc_reduce_int", lambda work, phi, mod: None)
    results = {r.name: r for r in run_checks("distinct")}
    assert not results["n=4 k=2 cyclotomic"].passed
    assert results["n=4 k=2 galois"].passed


def test_a_wrong_closed_form_fails_nesw(monkeypatch):
    real = verify.nesw_det_closed_form

    def off_by_one_at_five(k, *values):
        return real(k, *values) + (k == 5)

    monkeypatch.setattr(verify, "nesw_det_closed_form", off_by_one_at_five)
    assert failed_checks("nesw") == ["k=5 closed form = cofactor"]


def test_a_perturbed_theta_lift_fails_lift(monkeypatch):
    real = verify.lifted_theta

    def perturbed():
        rows = [list(row) for row in real()]
        rows[0][0] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(verify, "lifted_theta", perturbed)
    assert failed_checks("lift") == ["(H*D*N)^4 = I", "composite lift at vertices"]


def test_rotation_general_builds_each_system_once(monkeypatch):
    # both routes read one system, and so share its memo
    built, real = [], verify.multiset_rotation

    def counting(n, k):
        built.append((n, k))
        return real(n, k)

    monkeypatch.setattr(verify, "multiset_rotation", counting)
    results = run_checks("rotation-general")
    assert len(results) == 40 and all(r.passed for r in results)
    assert len(built) == len(set(built)) == 20


def test_the_gcd_check_ranks_only_the_kept_orbits(monkeypatch):
    # one row per kept orbit for each exponent, not one per T-orbit: the
    # orbits that the galois top closure of each system names
    ranked, real = [], verify.zeta_matrix

    def counting(pm, exponent):
        ranked.append(len(pm.elements))
        return real(pm, exponent)

    monkeypatch.setattr(verify, "zeta_matrix", counting)
    results = run_checks("structural")
    assert all(r.passed for r in results)
    kept = quotient = 0
    for _, system in verify._structural_systems():
        rows = _orbit_quotient(presenting_matrix(system))
        spectrum(system, "galois")
        kept += system.period * len(_orbit_selection(rows).elements)
        quotient += system.period * len(rows.elements)
    assert sum(ranked) == kept < quotient


def test_a_selection_that_loses_an_orbit_fails_structural(monkeypatch):
    # the gcd check ranks only the kept orbits, and agrees with a cyclotomic
    # route that reads them; the full-row rank of X still finds the lost row
    real = verify.multiset_rotation

    def last_kept_orbit_dropped(n, k):
        system = real(n, k)
        if (n, k) == (7, 4):
            _orbit_selection(_orbit_quotient(presenting_matrix(system)))
            starts, _, rank = system._memo["selection"]
            assert len(starts) > 1
            monkeypatch.setitem(system._memo, "selection", (starts[:-1], {}, rank))
        return system

    monkeypatch.setattr(verify, "multiset_rotation", last_kept_orbit_dropped)
    failed = failed_checks("structural")
    assert "multiset(7,4) methods agree, sum = dim V" in failed
    assert "multiset(7,4) gcd classes" not in failed
    assert all(name.startswith("multiset(7,4) ") for name in failed)


def two_pass_lyness_seeds(vector):
    """The lyness block's former loop: draw seeds from Random(55) until 100
    have an orbit in the domain, tested by computing it, then compute each
    orbit again for its sum, here by the Fraction oracle.  (seeds, sums,
    draws)."""
    rng = random.Random(55)
    seeds, draws = [], 0
    while len(seeds) < 100:
        draws += 1
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        y = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        try:
            lyness.lyness_orbit(x, y)
        except ValueError:
            continue
        seeds.append((x, y))
    return seeds, [oracles.lyness_numeric_orbit_sum(vector, s) for s in seeds], draws


def test_lyness_sums_the_seeds_of_the_two_pass_loop_once_each(monkeypatch):
    # one walk of the integer core per draw: a seed whose walk does not
    # raise is kept, with the sum of that walk, the oracle's float
    want_seeds, want_sums, draws = two_pass_lyness_seeds((-2, 0, 1, 0, 0))
    assert draws > 100  # some seeds leave the domain
    walks, kept, sums = [], [], []
    real = verify._orbit_log_sum

    def recording(vector, xn, xd, yn, yd):
        seed = (Fraction(xn, xd), Fraction(yn, yd))
        walks.append(seed)
        total = real(vector, xn, xd, yn, yd)
        kept.append(seed)
        sums.append(total)
        return total

    monkeypatch.setattr(verify, "_orbit_log_sum", recording)
    assert not failed_checks("lyness")
    assert kept == want_seeds and sums == want_sums
    assert len(walks) == draws


def test_lyness_builds_the_orbit_sum_operator_once(monkeypatch):
    # the block sums its own I + M + ... + M^4; the library's operator, read by
    # the comparison and by lyness_homomesy_check, is built once per process
    built, real = [], lyness.lyness_matrix

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(lyness, "lyness_matrix", counting)
    lyness.lyness_orbit_sum_operator.cache_clear()
    try:
        for _ in range(2):
            assert not failed_checks("lyness")
    finally:
        lyness.lyness_orbit_sum_operator.cache_clear()
    assert len(built) == 1


def test_a_wrong_orbit_sum_operator_fails_lyness(monkeypatch):
    # the block's own sum is the independent side of the comparison
    wrong = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    monkeypatch.setattr(verify, "lyness_orbit_sum_operator", lambda: wrong)
    assert failed_checks("lyness") == ["orbit-sum operator matches matrix"]


def test_coboundary_weights_are_a_multiple_of_the_fraction_scaling():
    # the pairs are the draws of the former Fraction coefficients, and the
    # weights c times the integers of _scale_to_int over den = c * its scale
    ours, theirs = random.Random(20240), random.Random(20240)
    multiples = set()
    for count in (1, 2, 5, 12, 40) * 20:
        pairs = [verify._random_pair(ours) for _ in range(count)]
        coeffs = [Fraction(theirs.randint(-9, 9), theirs.randint(1, 5)) for _ in range(count)]
        assert [Fraction(*pair) for pair in pairs] == coeffs
        den, weights = verify._integer_weights(pairs)
        scale, ints = _scale_to_int(coeffs)
        c, rest = divmod(den, scale)
        assert rest == 0 and c > 0 and weights == [c * v for v in ints]
        multiples.add(c)
    assert multiples != {1}


def test_coboundary_witnesses_the_centred_fraction_combinations(monkeypatch):
    # every trial hands the integer core, read as f / scale, the function of
    # the former block: sum c_{j,i} g_i o T^j, the c drawn as Fractions in the
    # same order, less its orbit means, summed here in Fractions
    seen, real = [], verify._integer_witness

    def recording(system, f, scale):
        seen.append(tuple(Fraction(v, scale) for v in f))
        return real(system, f, scale)

    monkeypatch.setattr(verify, "_integer_witness", recording)
    assert not failed_checks("coboundary")
    rng, want = random.Random(20240), []
    for _, system in verify._coboundary_cases():
        n, k = system.period, system.num_stats
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n * k)]
            values = []
            for x in range(system.size):
                total = Fraction(0)
                for j in range(n):
                    total += sum(c * g for c, g in zip(coeffs[j * k :], system.stats[x]))
                    x = system.perm[x]
                values.append(total)
            f = list(values)
            for orbit in orbits(system):
                mean = sum(values[x] for x in orbit) / len(orbit)
                for x in orbit:
                    f[x] -= mean
            want.append(tuple(f))
    assert seen == want


def test_coboundary_calls_the_public_witness_once_per_case(monkeypatch):
    calls, real = [], verify.coboundary_witness

    def counting(system, values):
        calls.append(system)
        return real(system, values)

    monkeypatch.setattr(verify, "coboundary_witness", counting)
    assert not failed_checks("coboundary")
    assert calls == [system for _, system in verify._coboundary_cases()]


def test_a_wrong_public_witness_fails_coboundary(monkeypatch):
    # the first trial of each case compares the public witness with the core's
    real = verify.coboundary_witness

    def shifted(system, values):
        return tuple(v + 1 for v in real(system, values))

    monkeypatch.setattr(verify, "coboundary_witness", shifted)
    results = run_checks("coboundary")
    assert [r.got for r in results] == ["99/100"] * len(results)


def test_a_wrong_integer_witness_fails_coboundary(monkeypatch):
    # a witness off by one at one element of each orbit of length > 1
    real = verify._integer_witness

    def off(system, f, scale):
        w = real(system, f, scale)
        for orbit in orbits(system):
            if len(orbit) > 1:
                w[orbit[0]] += 1
        return w

    monkeypatch.setattr(verify, "_integer_witness", off)
    results = run_checks("coboundary")
    assert [r.got for r in results] == ["0/100"] * len(results)
