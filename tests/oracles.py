"""Independent brute-force oracles: no shared code with the library paths.

Determinants here expand over all permutations (the library uses cofactor
recursion and Bareiss elimination), rank is the size of the largest square
submatrix with nonzero determinant, and products in Q(zeta_d) are schoolbook
products of Fraction coefficient lists, reduced by polynomial long division
(the library multiplies integer vectors over a common denominator), and
M - M' subtracts whole column blocks of the presenting matrix (the library
computes each difference g_i(T x) - g_i(x) once and indexes into them).
"""

from fractions import Fraction
from itertools import combinations, permutations


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


def shifted_difference(rows, n, k):
    """Rows of M - M' for presenting rows with n blocks of k columns.

    Block j of each row minus block j - 1, with block -1 = block n - 1.
    """
    return [
        [row[j * k + i] - row[((j - 1) % n) * k + i] for j in range(n) for i in range(k)]
        for row in rows
    ]
