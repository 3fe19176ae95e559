"""Finite sets carrying a periodic bijection and rational statistics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["FiniteSystem", "OrbitDecomposition", "validate", "orbits", "minimal_period"]


@dataclass(frozen=True)
class FiniteSystem:
    """A finite set X with a map T of declared period n and k statistics.

    `perm[x]` is the index of T(x).  The declared period need not be minimal;
    it only has to satisfy T^period = identity.  `stats` holds one row per
    element, one column per statistic; all values are exact rationals.
    Instances are immutable and freely shareable.
    """

    perm: tuple[int, ...]
    period: int
    stats: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None
    stat_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(int(p) for p in self.perm))
        object.__setattr__(
            self,
            "stats",
            tuple(tuple(Fraction(v) for v in row) for row in self.stats),
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


@dataclass(frozen=True)
class OrbitDecomposition:
    """Cycle partition of the index set, each cycle in forward T-order."""

    orbits: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> Counter:
        return Counter(len(o) for o in self.orbits)


def validate(system: FiniteSystem) -> list[str]:
    """Return every contract violation (empty list means the system is valid)."""
    violations: list[str] = []
    n = system.size
    perm = system.perm

    if system.period < 1:
        violations.append(f"period must be >= 1, got {system.period}")

    bijective = sorted(perm) == list(range(n))
    if not bijective:
        violations.append("perm is not a bijection on the index set")

    if bijective and system.period >= 1:
        current = list(range(n))
        for _ in range(system.period):
            current = [perm[x] for x in current]
        if current != list(range(n)):
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


def orbits(system: FiniteSystem) -> OrbitDecomposition:
    """Cycle decomposition of the permutation, sorted by smallest member."""
    perm = system.perm
    n = system.size
    if sorted(perm) != list(range(n)):
        raise ValueError("cannot decompose orbits: perm is not a bijection")
    seen = [False] * n
    cycles: list[tuple[int, ...]] = []
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
        cycles.append(tuple(cycle))
    return OrbitDecomposition(tuple(cycles))


def minimal_period(system: FiniteSystem) -> int:
    """The least m >= 1 with T^m = identity (lcm of the orbit sizes)."""
    return math.lcm(*(len(o) for o in orbits(system).orbits))
