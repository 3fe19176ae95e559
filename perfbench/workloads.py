"""Request generation for the dynspan benchmark.

A workload is a list of requests for one pass.  Analysis requests carry the
JSON text of a system document; verification requests name one
`verify.run_checks` block.  Everything is derived from (workload, seed,
pass index), so the same triple always gives byte-identical documents, and
no document repeats across the passes of a run.

Shapes of the random systems (period, size, cycle type, statistic kinds) come
from fixed constants, not from the seed: the seed only chooses labelling and
values.  That keeps the cost of a pass nearly seed-independent while every
document stays distinct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from checks import rational_json
from dynspan import cli, families
from dynspan.exact import divisors
from dynspan.verify import BLOCK_NAMES

# Documents whose reports have golden digests in golden.json are those of
# this seed (first pass) plus every built-in, whatever the seed.
DEFAULT_SEED = 1

LARGE_BUILTINS = (("multiset", 8, 5), ("chain", 8, 6))
SMALL_MAX_SIZE = 130
SMALL_RANDOM_COUNT = 30
RATIONAL_COUNT = 120
RATIONAL_PERIODS = (4, 6, 8, 9, 10, 12)
VERIFY_BLOCKS = tuple(b for b in BLOCK_NAMES if b != "structural")


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    kind is "analyze" (text holds a system document) or "verify" (block
    names the check block).  builtin names the canonical built-in system a
    relabelled document came from, and sigma maps its canonical indices to
    the document's.
    """

    kind: str
    key: str
    text: str = ""
    block: str = ""
    builtin: str | None = None
    sigma: tuple[int, ...] | None = None


def _rng(workload: str, seed: int, pass_index: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}/{part}")


def small_builtins() -> list[tuple[str, int, int]]:
    """The `structural` sweep of verify-paper restricted to |X| <= 130."""
    out = []
    for family in ("multiset", "chain"):
        for n in range(2, 9):
            for k in range(2, 7):
                if math.comb(n + k - 1, k) <= SMALL_MAX_SIZE:
                    out.append((family, n, k))
    for n in range(2, 9):
        for k in range(2, min(6, n) + 1):
            if math.comb(n, k) <= SMALL_MAX_SIZE:
                out.append(("distinct", n, k))
    out.append(("negation", 2, 1))
    return out


def builtin_name(family: str, n: int, k: int) -> str:
    return "negation" if family == "negation" else f"{family}({n},{k})"


def builtin_document(family: str, n: int, k: int) -> dict:
    if family == "negation":
        system = families.negation_system()
    else:
        builder = {
            "multiset": families.multiset_rotation,
            "chain": families.chain_rowmotion,
            "distinct": families.distinct_multiset_rotation,
        }[family]
        system = builder(n, k)
    return cli.system_to_document(system)


def relabel(doc: dict, sigma: list[int]) -> dict:
    """The isomorphic built-in document with element x renamed sigma[x]."""
    size = len(doc["perm"])
    perm = [0] * size
    stats: list = [None] * size
    labels: list = [None] * size
    for x in range(size):
        perm[sigma[x]] = sigma[doc["perm"][x]]
        stats[sigma[x]] = doc["stats"][x]
        labels[sigma[x]] = doc["labels"][x]
    return dict(doc, perm=perm, stats=stats, labels=labels)


def _builtin_requests(specs, rng: random.Random, tag: str) -> list[Request]:
    """Seeded relabellings of built-ins.

    Tiny systems have few relabellings, so the labels also carry the tag of
    the (seed, pass); labels do not enter the report.
    """
    out = []
    for family, n, k in specs:
        doc = builtin_document(family, n, k)
        sigma = list(range(len(doc["perm"])))
        rng.shuffle(sigma)
        name = builtin_name(family, n, k)
        relabelled = relabel(doc, sigma)
        relabelled["labels"] = [f"{label}/{tag}" for label in relabelled["labels"]]
        out.append(
            Request(
                "analyze",
                name,
                text=json.dumps(relabelled),
                builtin=name,
                sigma=tuple(sigma),
            )
        )
    return out


# -- random systems ----------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """Seed-independent shape of one random system."""

    period: int
    cycles: tuple[int, ...]
    kinds: tuple[str, ...]  # per statistic: "generic", "mesic" or "invariant"
    max_den: int


def _cycle_type(rng: random.Random, period: int, size: int, minimal: bool) -> tuple[int, ...]:
    """Cycle lengths summing to size, each dividing period, with a fixed point.

    With minimal=False all lengths divide one proper divisor of the period, so
    the declared period is not the minimal one.
    """
    if minimal:
        top = period
    else:
        top = rng.choice([d for d in divisors(period) if 1 < d < period])
    allowed = divisors(top)
    cycles = [1]
    if top <= size - 1:
        cycles.append(top)
    while sum(cycles) < size:
        room = size - sum(cycles)
        cycles.append(rng.choice([d for d in allowed if d <= room]))
    return tuple(cycles)


def rational_shapes() -> list[Shape]:
    rng = random.Random("random-rational/shapes")
    shapes = []
    for i in range(RATIONAL_COUNT):
        period = RATIONAL_PERIODS[i % len(RATIONAL_PERIODS)]
        k = 1 + (i // len(RATIONAL_PERIODS)) % 4
        size = rng.randint(10, 36)
        cycles = _cycle_type(rng, period, size, minimal=i % 5 != 4)
        kinds = tuple(("generic", "mesic", "invariant")[(i + s) % 3] for s in range(k))
        shapes.append(Shape(period, cycles, kinds, 6))
    return shapes


def small_random_shapes() -> list[Shape]:
    rng = random.Random("ladder-small/shapes")
    shapes = []
    for i in range(SMALL_RANDOM_COUNT):
        period = 2 + i % 7
        k = 2 + i % 3
        size = rng.randint(20, SMALL_MAX_SIZE)
        cycles = _cycle_type(rng, period, size, minimal=True)
        shapes.append(Shape(period, cycles, ("generic",) * k, 1))
    return shapes


def _rational(rng: random.Random, max_den: int) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, max_den))


def random_document(shape: Shape, rng: random.Random) -> dict:
    """A system of the given shape with seeded labelling and values.

    "mesic" statistics are h - h o T + c (constant orbit average c), and
    "invariant" ones are constant on each orbit; "generic" values are free.
    Integer shapes (max_den 1) draw values from 0..7 like the built-ins.
    """
    size = sum(shape.cycles)
    names = list(range(size))
    rng.shuffle(names)
    perm = [0] * size
    orbit_of = [0] * size
    pos = 0
    for o, length in enumerate(shape.cycles):
        members = names[pos : pos + length]
        pos += length
        for t, x in enumerate(members):
            perm[x] = members[(t + 1) % length]
            orbit_of[x] = o
    columns = []
    for kind in shape.kinds:
        if shape.max_den == 1:
            col = [Fraction(rng.randint(0, 7)) for _ in range(size)]
        elif kind == "generic":
            col = [_rational(rng, shape.max_den) for _ in range(size)]
        elif kind == "mesic":
            h = [_rational(rng, shape.max_den) for _ in range(size)]
            c = _rational(rng, shape.max_den)
            col = [h[x] - h[perm[x]] + c for x in range(size)]
        else:
            per_orbit = [_rational(rng, shape.max_den) for _ in shape.cycles]
            col = [per_orbit[orbit_of[x]] for x in range(size)]
        columns.append(col)
    return {
        "period": shape.period,
        "perm": perm,
        "stats": [[rational_json(col[x]) for col in columns] for x in range(size)],
    }


def _random_requests(
    shapes: list[Shape], rng: random.Random, prefix: str
) -> list[Request]:
    return [
        Request("analyze", f"{prefix}{i}", text=json.dumps(random_document(s, rng)))
        for i, s in enumerate(shapes)
    ]


# -- workloads ---------------------------------------------------------------


def _ladder_large(seed: int, pass_index: int) -> list[Request]:
    return _builtin_requests(
        LARGE_BUILTINS, _rng("ladder-large", seed, pass_index), f"{seed}.{pass_index}"
    )


def _ladder_small(seed: int, pass_index: int) -> list[Request]:
    out = _builtin_requests(
        small_builtins(), _rng("ladder-small", seed, pass_index), f"{seed}.{pass_index}"
    )
    out += _random_requests(
        small_random_shapes(), _rng("ladder-small", seed, pass_index, "random"), "int"
    )
    _rng("ladder-small", seed, pass_index, "order").shuffle(out)
    return out


def _random_rational(seed: int, pass_index: int) -> list[Request]:
    return _random_requests(
        rational_shapes(), _rng("random-rational", seed, pass_index), "rat"
    )


def _verify_paper(seed: int, pass_index: int) -> list[Request]:
    blocks = list(VERIFY_BLOCKS)
    _rng("verify-paper", seed, pass_index).shuffle(blocks)
    return [Request("verify", b, block=b) for b in blocks]


BUILDERS = {
    "ladder-large": _ladder_large,
    "ladder-small": _ladder_small,
    "random-rational": _random_rational,
    "verify-paper": _verify_paper,
}


def build_requests(workload: str, seed: int, pass_index: int) -> list[Request]:
    """The requests of one pass of a workload named in BUILDERS."""
    return BUILDERS[workload](seed, pass_index)
