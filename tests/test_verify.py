"""Every `verify-paper` block has checks that can fail: each test breaks one
library function that a block relies on, by monkeypatching, and expects a
failed check, not an exception."""

from dynspan import linearize, verify
from dynspan.exact import ExactMatrix
from dynspan.linearize import PresentingMatrix
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
    real = linearize._common_orbit_average

    def last_element_left_out(values, cycles, scale):
        return real(values, tuple(c[:-1] or c for c in cycles), scale)

    monkeypatch.setattr(linearize, "_common_orbit_average", last_element_left_out)
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
        rows = [list(row) for row in real().entries]
        rows[0][0] += 1
        return ExactMatrix.from_rows(rows)

    monkeypatch.setattr(verify, "lifted_theta", perturbed)
    assert failed_checks("lift") == ["(H*D*N)^4 = I", "composite lift at vertices"]
