"""Correctness checks on the benchmark's outputs.

An analysis report is checked against identities that hold for every
system, whatever the seed, and against the golden digest recorded for its
document when there is one.  A relabelled built-in is first mapped back to
its canonical labelling, so every built-in request is compared with the
digest of the canonical report.  Orbit averages are recomputed here with
plain Fractions, independently of the library.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report_text(report: dict) -> str:
    """The report exactly as `dynspan analyze --output json` prints it."""
    return json.dumps(report, indent=2)


def _orbits(perm: list[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            orbit = []
            x = start
            while not seen[x]:
                seen[x] = True
                orbit.append(x)
                x = perm[x]
            out.append(orbit)
    return out


def rational_json(q: Fraction) -> int | str:
    """A rational as dynspan documents write it: an integer or "p/q"."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def identity_problems(doc: dict, report: dict) -> list[str]:
    """Violations of the seed-independent identities of an analysis report."""
    n = doc["period"]
    perm = doc["perm"]
    stats = [[Fraction(v) for v in row] for row in doc["stats"]]
    k = len(stats[0]) if stats else 0
    problems = []
    spectrum = report["spectrum"]
    mults = [e["multiplicity"] for e in spectrum]
    if [(e["exponent"], e["root_order"]) for e in spectrum] != [
        (j, n // math.gcd(j, n)) for j in range(n)
    ]:
        problems.append("spectrum exponents or root orders are wrong")
    elif any(mults[j] != mults[math.gcd(j, n) % n] for j in range(n)):
        problems.append("multiplicities depend on more than gcd(j, n)")
    dim_v = report["dim_V"]
    if sum(mults) != dim_v:
        problems.append(f"sum of multiplicities {sum(mults)} != dim_V {dim_v}")
    if mults and dim_v != mults[0] + report["zero_mesic_dimension"]:
        problems.append("dim_V != mult(1) + zero_mesic_dimension")
    basis = report["invariant_basis"]
    if mults and len(basis) != mults[0]:
        problems.append(f"invariant basis has {len(basis)} vectors, mult(1) is {mults[0]}")
    for v in basis:
        if len(v) != len(perm) or any(v[perm[x]] != v[x] for x in range(len(perm))):
            problems.append("an invariant-basis vector is not constant along perm")
            break

    names = doc.get("stat_names") or [f"g{i + 1}" for i in range(k)]
    orbit_list = _orbits(perm)
    want = []
    for i in range(k):
        column = [row[i] for row in stats]
        averages = {sum(column[x] for x in o) / len(o) for o in orbit_list}
        c = averages.pop() if len(averages) == 1 else None
        if all(column[perm[x]] == column[x] for x in range(len(perm))):
            verdict = "invariant"
        else:
            verdict = "c-mesic" if c is not None else "neither"
        want.append(
            {"name": names[i], "verdict": verdict, "c": None if c is None else rational_json(c)}
        )
    if report["homomesies"] != want:
        problems.append("homomesies differ from the recomputed orbit averages")

    flat = None
    if n >= 2:
        nonzero = [m for m in mults[1:] if m > 0]
        flat = {
            "min_nonunital": min(nonzero) if nonzero else None,
            "max_nonunital": max(nonzero) if nonzero else None,
            "ratio": rational_json(Fraction(max(nonzero), min(nonzero))) if nonzero else None,
        }
    if report["flatness"] != flat:
        problems.append("flatness does not match the spectrum")
    return problems


def canonical_report(report: dict, sigma: tuple[int, ...]) -> dict:
    """Map a relabelled built-in's report back to the canonical labelling."""
    basis = [[v[sigma[x]] for x in range(len(sigma))] for v in report["invariant_basis"]]
    return dict(report, invariant_basis=basis)


def analysis_problems(request, text: str, golden: dict) -> list[str]:
    """All problems with the serialized report `text` for an analyze request."""
    doc = json.loads(request.text)
    report = json.loads(text)
    problems = identity_problems(doc, report)
    if request.builtin is not None:
        want = golden["builtin"].get(request.builtin)
        got = sha256(report_text(canonical_report(report, request.sigma)))
        if want is None:
            problems.append(f"no golden digest for {request.builtin}")
        elif got != want:
            problems.append(f"{request.builtin}: report digest differs from golden")
    else:
        want = golden["random"].get(sha256(request.text))
        if want is not None and sha256(text) != want:
            problems.append(f"{request.key}: report digest differs from golden")
    return problems


def check_list_text(results) -> str:
    return json.dumps(
        [[r.block, r.name, r.expected, r.got, r.passed] for r in results], indent=1
    )


def verify_problems(block: str, results, golden: dict) -> list[str]:
    """Problems with the CheckResult rows of one verify-paper block."""
    problems = [
        f"{r.block}: {r.name} failed (expected {r.expected}, got {r.got})"
        for r in results
        if not r.passed
    ]
    want = golden["verify"].get(block)
    if want is None:
        problems.append(f"no golden digest for block {block}")
    elif sha256(check_list_text(results)) != want:
        problems.append(f"{block}: check list differs from golden")
    return problems
