"""Every `verify-paper` check of the blocks that read the block sums and the
orbit averages can fail: each test breaks one library function that a block
relies on, by monkeypatching, and expects a failed check, not an exception."""

from dynspan import linearize
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

    def last_element_left_out(values, cycles, scale=1):
        return real(values, tuple(c[:-1] or c for c in cycles), scale)

    monkeypatch.setattr(linearize, "_common_orbit_average", last_element_left_out)
    failed = failed_checks("chain")
    assert failed and all(name.endswith("orbit means") for name in failed)
