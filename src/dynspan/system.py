"""Finite sets carrying a periodic bijection and rational statistics."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

__all__ = ["FiniteSystem", "validate", "orbits", "minimal_period"]


@dataclass(frozen=True, init=False)
class FiniteSystem:
    """A finite set X with a map T of declared period n and k statistics.

    `perm[x]` is the index of T(x).  The declared period need not be minimal;
    it only has to satisfy T^period = identity.  The statistics live once, as
    the integer grid `(L, rows)`: L is the lcm of their reduced denominators
    and `rows[x][i]` is the int g_i(x) * L.  The constructor takes them as
    `stats`, one row per element, each cell an int, a Fraction or a string
    that `Fraction` reads, and scales them once; or as a `grid`, which
    `cli.document_to_system` passes, reduced by any factor that L shares
    with every entry.  So L is canonical, and equality, hashing and repr,
    which read the grid, are those of the rationals.  Given both, `stats`
    wins, as in `dataclasses.replace(system, stats=...)`.  `stats` is a
    read-only Fraction view of the grid, built on first read; no stage of a
    report reads it.  Instances are immutable and freely shareable.

    `_memo` holds what is derived from the system alone and would otherwise
    be rebuilt on every call.  This module fills "orbits" (the T-orbits, by
    `orbits`, and so by `validate` too), "minimal_period" (the lcm of their
    sizes, likewise), "violations" (the tuple of contract violations, by
    `validate`) and "stats" (the view).  `linearize` fills
    "quotient" (the `_sums` that every `_orbit_quotient` instance shares:
    its integer rows at the first element of each T-orbit and each T^d block
    sum of them, read by both spectrum routes, the invariant basis, the
    0-mesic rank and the orbit averages), "selection" (by the galois top
    closure, or on a tall system, one with more orbits than m*k columns, by
    the first rank that reads the orbits: the starts of the orbits whose
    rows generate the rotation closure of every orbit row, their `_sums`,
    and f(m) = dim V; every later rank reads these rows instead of the
    quotient's) and "galois" (f(d) = dim of the T^d-invariant subspace of V,
    for d | n).  It holds no object that refers back to the system, so
    it makes no reference cycle.  Each entry is built on first use and lives
    exactly as long as the instance.  The memo takes no part in equality,
    hashing or repr, and `dataclasses.replace` starts a new instance with an
    empty memo.
    """

    perm: tuple[int, ...]
    period: int
    grid: tuple[int, tuple[tuple[int, ...], ...]]
    labels: tuple[str, ...] | None = None
    stat_names: tuple[str, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __init__(
        self,
        perm: Sequence[int],
        period: int,
        stats: Sequence[Sequence[object]] | None = None,
        labels: Sequence[str] | None = None,
        stat_names: Sequence[str] | None = None,
        *,
        grid: tuple[int, Sequence[Sequence[int]]] | None = None,
    ) -> None:
        if stats is not None:
            # one type scan of every cell: int cells are the grid over L = 1
            lcm, rows = 1, tuple(map(tuple, stats))
            if not set(map(type, chain.from_iterable(rows))) <= {int}:
                cells = [[Fraction(v) for v in row] for row in rows]
                lcm = math.lcm(*{v.denominator for row in cells for v in row})
                rows = tuple(
                    tuple([v.numerator * (lcm // v.denominator) for v in row])
                    for row in cells
                )
        elif grid is None:
            raise TypeError("FiniteSystem needs stats or grid")
        else:
            lcm, rows = grid[0], tuple(map(tuple, grid[1]))
            common = math.gcd(lcm, *chain.from_iterable(rows)) if lcm != 1 else 1
            if common > 1:
                lcm //= common
                rows = tuple(tuple([v // common for v in row]) for row in rows)
        init = object.__setattr__
        init(self, "perm", tuple(map(int, perm)))
        init(self, "period", period)
        init(self, "grid", (lcm, rows))
        init(self, "labels", None if labels is None else tuple(map(str, labels)))
        init(self, "stat_names", None if stat_names is None else tuple(map(str, stat_names)))
        init(self, "_memo", {})

    @property
    def stats(self) -> tuple[tuple[Fraction, ...], ...]:
        """The statistics as Fractions, `stats[x][i]` = g_i(x), built on
        first read; equal values share one Fraction."""
        view = self._memo.get("stats")
        if view is None:
            lcm, rows = self.grid
            value = {v: Fraction(v, lcm) for v in set(chain.from_iterable(rows))}
            view = self._memo["stats"] = tuple(
                tuple(map(value.__getitem__, row)) for row in rows
            )
        return view

    @property
    def size(self) -> int:
        return len(self.perm)

    @property
    def num_stats(self) -> int:
        rows = self.grid[1]
        return len(rows[0]) if rows else 0

    def stat_name(self, i: int) -> str:
        if self.stat_names is not None and i < len(self.stat_names):
            return self.stat_names[i]
        return f"g{i + 1}"


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

    rows = system.grid[1]
    if len(rows) != n:
        violations.append(f"stats has {len(rows)} rows, expected {n}")
    else:
        k = system.num_stats
        for x, row in enumerate(rows):
            if len(row) != k:
                violations.append(f"stats row {x} has length {len(row)}, expected {k}")

    if system.labels is not None and len(system.labels) != n:
        violations.append(f"labels has length {len(system.labels)}, expected {n}")
    if system.stat_names is not None and len(system.stat_names) != system.num_stats:
        violations.append(
            f"stat_names has length {len(system.stat_names)}, expected {system.num_stats}"
        )
    return violations


def orbits(system: FiniteSystem) -> tuple[tuple[int, ...], ...]:
    """The T-orbits, each in forward T-order, sorted by smallest member.

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


def minimal_period(system: FiniteSystem) -> int:
    """The least m >= 1 with T^m = identity (lcm of the orbit sizes); memoised."""
    m = system._memo.get("minimal_period")
    if m is None:
        m = system._memo["minimal_period"] = math.lcm(*(len(c) for c in orbits(system)))
    return m
