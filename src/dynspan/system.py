"""Finite sets carrying a periodic bijection and rational statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["FiniteSystem", "validate", "orbits", "minimal_period"]


@dataclass(frozen=True)
class FiniteSystem:
    """A finite set X with a map T of declared period n and k statistics.

    `perm[x]` is the index of T(x).  The declared period need not be minimal;
    it only has to satisfy T^period = identity.  `stats` holds one row per
    element, one column per statistic; all values are exact rationals.
    Instances are immutable and freely shareable.

    `_memo` holds what is derived from the system alone and would otherwise
    be rebuilt on every call.  This module fills "orbits" (the T-orbits, by
    `orbits`, and so by `validate` too) and "violations" (the tuple of
    contract violations, by `validate`).  `linearize` fills "integer" (the
    statistics over one common denominator, `(L, rows)`: L is the lcm of
    every denominator in the statistics and `rows[x][i]` is g_i(x) * L; read
    by every stage of a report), "quotient" (the `_sums` that every
    `_orbit_quotient` instance shares: its integer rows at the first element
    of each T-orbit and each T^d block sum of them, read by both spectrum
    routes, the invariant basis and the 0-mesic rank), "selection" (only on
    a tall system, one with more orbits than m*k columns, m the minimal
    period: the starts of the orbits whose rows generate the rotation
    closure of every orbit row, their own `_sums`, and f(m) = dim V, from the
    one closure that reads every orbit row; every other rank reads these rows
    instead of the quotient's) and "galois" (f(d) = dim of the T^d-invariant
    subspace of V, for d | n).  It holds no object that refers back to the
    system, so it makes no reference cycle.  Each entry is built on first use
    and lives exactly as long as the instance.  The memo takes no part in
    equality, hashing or repr, and `dataclasses.replace` starts a new
    instance with an empty memo.
    """

    perm: tuple[int, ...]
    period: int
    stats: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None
    stat_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        object.__setattr__(
            self,
            "stats",
            tuple(
                tuple(v if type(v) is Fraction else Fraction(v) for v in row)
                for row in self.stats
            ),
        )
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if self.stat_names is not None:
            object.__setattr__(
                self, "stat_names", tuple(str(s) for s in self.stat_names)
            )

    @property
    def size(self) -> int:
        return len(self.perm)

    @property
    def num_stats(self) -> int:
        return len(self.stats[0]) if self.stats else 0

    def stat_name(self, i: int) -> str:
        if self.stat_names is not None and i < len(self.stat_names):
            return self.stat_names[i]
        return f"g{i + 1}"

    def label(self, x: int) -> str:
        if self.labels is not None and x < len(self.labels):
            return self.labels[x]
        return str(x)


def validate(system: FiniteSystem) -> list[str]:
    """Return every contract violation (empty list means the system is valid).

    The system is immutable, so the violations are found once and kept in
    `system._memo["violations"]`; each call returns a fresh list of them.
    """
    found = system._memo.get("violations")
    if found is None:
        found = system._memo["violations"] = tuple(_violations(system))
    return list(found)


def _violations(system: FiniteSystem) -> list[str]:
    violations: list[str] = []
    n = system.size
    perm = system.perm

    if not n:
        violations.append("X needs at least one element")

    if system.period < 1:
        violations.append(f"period must be >= 1, got {system.period}")

    bijective = sorted(perm) == list(range(n))
    if not bijective:
        violations.append("perm is not a bijection on the index set")

    if bijective and system.period >= 1 and system.period % minimal_period(system):
        violations.append(f"T^{system.period} != identity")

    if len(system.stats) != n:
        violations.append(
            f"stats has {len(system.stats)} rows, expected {n}"
        )
    else:
        k = system.num_stats
        for x, row in enumerate(system.stats):
            if len(row) != k:
                violations.append(
                    f"stats row {x} has length {len(row)}, expected {k}"
                )

    if system.labels is not None and len(system.labels) != n:
        violations.append(f"labels has length {len(system.labels)}, expected {n}")
    if system.stat_names is not None and len(system.stat_names) != system.num_stats:
        violations.append(
            f"stat_names has length {len(system.stat_names)}, expected {system.num_stats}"
        )
    return violations


def _cycles(system: FiniteSystem) -> tuple[tuple[int, ...], ...]:
    """Cycles of the permutation, each in forward T-order, by smallest member.

    Memoised as `system._memo["orbits"]`, which is set only once the
    permutation is known to be a bijection.
    """
    cycles = system._memo.get("orbits")
    if cycles is not None:
        return cycles
    perm = system.perm
    n = system.size
    if sorted(perm) != list(range(n)):
        raise ValueError("cannot decompose orbits: perm is not a bijection")
    seen = [False] * n
    found: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        found.append(tuple(cycle))
    cycles = system._memo["orbits"] = tuple(found)
    return cycles


def orbits(system: FiniteSystem) -> tuple[tuple[int, ...], ...]:
    """The T-orbits, each in forward T-order, sorted by smallest member."""
    return _cycles(system)


def minimal_period(system: FiniteSystem) -> int:
    """The least m >= 1 with T^m = identity (lcm of the orbit sizes)."""
    return math.lcm(*(len(c) for c in _cycles(system)))
