"""Built-in system families and the four-zone sample-matrix machinery.

Families: rotation on k-element multisets over {0..n-1}, the left-to-right
reflection sweep on the same set (a Coxeter element of order k+1), rotation
restricted to multisets with distinct elements, and the two-point negation
system.  Statistics are always the sorted entries g_1 <= ... <= g_k.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from .exact import CycNumber, ExactMatrix, Scalar
from .system import FiniteSystem

__all__ = [
    "NeswEntries",
    "chain_rowmotion",
    "distinct_multiset_rotation",
    "multiset_elements",
    "multiset_rotation",
    "negation_system",
    "nesw_det_closed_form",
    "nesw_entries",
    "nesw_matrix",
    "nesw_recurrence_check",
]


def multiset_elements(n: int, k: int) -> list[tuple[int, ...]]:
    """All weakly increasing k-tuples over {0..n-1}, in lexicographic order."""
    return list(combinations_with_replacement(range(n), k))


def _label(entries: tuple[int, ...], n: int) -> str:
    sep = "" if n <= 10 else ","
    return sep.join(str(v) for v in entries)


def _entry_system(
    elements: list[tuple[int, ...]],
    image: dict[tuple[int, ...], tuple[int, ...]],
    period: int,
    n: int,
) -> FiniteSystem:
    index = {x: i for i, x in enumerate(elements)}
    k = len(elements[0])
    return FiniteSystem(
        perm=tuple(index[image[x]] for x in elements),
        period=period,
        stats=elements,
        labels=tuple(_label(x, n) for x in elements),
        stat_names=tuple(f"g{i + 1}" for i in range(k)),
    )


def multiset_rotation(n: int, k: int) -> FiniteSystem:
    """Increment every entry by 1 mod n, then re-sort; period n."""
    if n < 2 or k < 2:
        raise ValueError("multiset rotation needs n >= 2 and k >= 2")
    elements = multiset_elements(n, k)
    image = {x: tuple(sorted((v + 1) % n for v in x)) for x in elements}
    return _entry_system(elements, image, n, n)


def _sweep(x: tuple[int, ...], n: int) -> tuple[int, ...]:
    # left-to-right update: new_i = new_{i-1} + old_{i+1} - old_i
    k = len(x)
    out: list[int] = []
    prev = 0
    for i in range(k):
        nxt = x[i + 1] if i + 1 < k else n - 1
        prev = prev + nxt - x[i]
        out.append(prev)
    return tuple(out)


def chain_rowmotion(n: int, k: int) -> FiniteSystem:
    """The composite reflection sweep rho_k o ... o rho_1; declared period k+1."""
    if n < 2 or k < 2:
        raise ValueError("chain rowmotion needs n >= 2 and k >= 2")
    elements = multiset_elements(n, k)
    image = {x: _sweep(x, n) for x in elements}
    return _entry_system(elements, image, k + 1, n)


def distinct_multiset_rotation(n: int, k: int) -> FiniteSystem:
    """Rotation restricted to k-element subsets of {0..n-1}; period n."""
    if n < 2:
        raise ValueError("distinct rotation needs n >= 2")
    if not 1 <= k <= n:
        raise ValueError("distinct rotation needs 1 <= k <= n")
    elements = list(combinations(range(n), k))
    image = {x: tuple(sorted((v + 1) % n for v in x)) for x in elements}
    return _entry_system(elements, image, n, n)


def negation_system() -> FiniteSystem:
    """Two points swapped by T, with the identity statistic g(x) = x."""
    return FiniteSystem(
        perm=(1, 0),
        period=2,
        stats=((1,), (-1,)),
        labels=("1", "-1"),
        stat_names=("x",),
    )


class NeswEntries(NamedTuple):
    N: CycNumber
    E: CycNumber
    S: CycNumber
    W: CycNumber


def nesw_entries(n: int, j: int) -> NeswEntries:
    """The four weighted root-of-unity sums appearing in the sample matrix.

    With zeta = e^(2*pi*i*j/n) != 1, represented in Q(zeta_d) for
    d = n/gcd(j, n):

        W = 0 + 1*zeta + ... + (n-2)*zeta^(n-2) + 0*zeta^(n-1)
        N = 0 + 1*zeta + ... + (n-2)*zeta^(n-2) + (n-1)*zeta^(n-1)
        S = 1 + 2*zeta + ... + (n-1)*zeta^(n-2) + 0*zeta^(n-1)
        E = 1 + 2*zeta + ... + (n-1)*zeta^(n-2) + (n-1)*zeta^(n-1)
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if j % n == 0:
        raise ValueError("need zeta != 1, i.e. j not divisible by n")
    g = math.gcd(j, n)
    d = n // g
    s = j // g
    powers = [CycNumber.root(d, (s * m) % d) for m in range(n)]

    def weighted(coeffs: list[int]) -> CycNumber:
        acc = CycNumber.zero(d)
        for c, p in zip(coeffs, powers):
            if c:
                acc = acc + p * c
        return acc

    inner = list(range(n - 1))  # 0, 1, ..., n-2 against zeta^0..zeta^(n-2)
    shifted = list(range(1, n))  # 1, 2, ..., n-1
    return NeswEntries(
        N=weighted(inner + [n - 1]),
        E=weighted(shifted + [n - 1]),
        S=weighted(shifted + [0]),
        W=weighted(inner + [0]),
    )


def nesw_matrix(k: int, N: Scalar, E: Scalar, S: Scalar, W: Scalar) -> ExactMatrix:
    """The k x k matrix split into four constant zones.

    With 1-based (i, j): N on or above the main diagonal and weakly above the
    antidiagonal (i + j <= k + 1), E on or above the diagonal but below the
    antidiagonal, W strictly below the diagonal and weakly above the
    antidiagonal, S in the remaining corner.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    rows = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            if j >= i:
                row.append(N if i + j <= k + 1 else E)
            else:
                row.append(W if i + j <= k + 1 else S)
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def nesw_det_closed_form(k: int, N: Scalar, E: Scalar, S: Scalar, W: Scalar) -> Scalar:
    """Closed form for the zoned determinant.

    For k = 2i:   (-1)^i * N * (N-S)^(i-1) * (W-E)^i
    for k = 2i+1: (-1)^i * N * (N-S)^i     * (W-E)^i

    The powers are repeated products, so the form is exact over Q and over
    Q(zeta_d) alike.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    i, r = divmod(k, 2)
    value = math.prod([N] + [N - S] * (i - 1 + r) + [W - E] * i)
    return -value if i % 2 else value


def nesw_recurrence_check(k: int, N: Scalar, E: Scalar, S: Scalar, W: Scalar) -> bool:
    """Check the order-lowering recurrence by cofactor determinants.

    Clearing the first column against the last one reduces D_k(N,E,S,W) to
    N*(E-W)/E times the minor, and the minor is the (k-1)-zone matrix with
    cyclically rotated arguments turned a quarter turn.  The quarter turn
    multiplies a determinant by (-1)^floor((k-1)/2), so the verified identity
    is

        D_k(N,E,S,W) = (-1)^floor((k-1)/2) * (N*(E-W)/E) * D_{k-1}(E,S,W,N),

    checked multiplied through by E, which is nonzero, so that it needs no
    division and holds over Q and over Q(zeta_d) alike.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if not E:
        raise ValueError("need E != 0")
    lhs = E * nesw_matrix(k, N, E, S, W).det_cofactor()
    rhs = N * (E - W) * nesw_matrix(k - 1, E, S, W, N).det_cofactor()
    if ((k - 1) // 2) % 2:
        rhs = -rhs
    return lhs == rhs
