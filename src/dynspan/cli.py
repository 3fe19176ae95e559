"""Command-line interface: build, ingest and analyze systems; run the checks.

Systems travel as JSON documents with keys "period", "perm", "stats" and
optional "labels" / "stat_names".  Rationals serialize as plain integers
when integral and as "p/q" strings otherwise, so nothing ever rounds.
Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 internal error (an unexpected exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from .families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
)
from .linearize import (
    extend_products,
    flatness_report,
    invariant_basis,
    presenting_matrix,
    shifted_difference,
    spectrum,
    statistic_report,
)
from .lyness import (
    lyness_homomesy_check,
    lyness_numeric_orbit_sum,
    lyness_orbit_sum_operator,
    lyness_pullback,
)
from .system import FiniteSystem, validate
from .verify import BLOCK_NAMES, run_checks

__all__ = ["main", "run"]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class CliInputError(Exception):
    """Bad document or bad parameters; maps to exit code 2."""


def _rational_to_json(q: Fraction) -> int | str:
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _rational_from_json(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise CliInputError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise CliInputError(
                f'{where}: {value!r} does not match the rational pattern "p/q"'
            )
        return Fraction(value)
    raise CliInputError(f"{where}: expected an integer or a rational string")


def system_to_document(system: FiniteSystem) -> dict:
    doc: dict = {
        "period": system.period,
        "perm": list(system.perm),
        "stats": [[_rational_to_json(v) for v in row] for row in system.stats],
    }
    if system.labels is not None:
        doc["labels"] = list(system.labels)
    if system.stat_names is not None:
        doc["stat_names"] = list(system.stat_names)
    return doc


def document_to_system(doc: object) -> FiniteSystem:
    if not isinstance(doc, dict):
        raise CliInputError("document must be a JSON object")
    problems: list[str] = []
    period = doc.get("period")
    if not isinstance(period, int) or isinstance(period, bool):
        problems.append('"period" must be an integer')
        period = 1
    perm = doc.get("perm")
    if not isinstance(perm, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in perm
    ):
        problems.append('"perm" must be an array of integers')
        perm = []
    elif not perm:
        problems.append('"perm" must not be empty: X needs at least one element')
    stats_raw = doc.get("stats")
    stats: list[list[Fraction]] = []
    if not isinstance(stats_raw, list) or not all(
        isinstance(r, list) for r in stats_raw
    ):
        problems.append('"stats" must be an array of arrays')
    else:
        for x, row in enumerate(stats_raw):
            parsed = []
            for i, v in enumerate(row):
                try:
                    parsed.append(_rational_from_json(v, f"stats[{x}][{i}]"))
                except CliInputError as exc:
                    problems.append(str(exc))
                    parsed.append(Fraction(0))
            stats.append(parsed)
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        problems.append('"labels" must be an array of strings')
        labels = None
    stat_names = doc.get("stat_names")
    if stat_names is not None and (
        not isinstance(stat_names, list)
        or not all(isinstance(s, str) for s in stat_names)
    ):
        problems.append('"stat_names" must be an array of strings')
        stat_names = None
    if problems:
        raise CliInputError("; ".join(problems))
    system = FiniteSystem(
        perm=tuple(perm),
        period=period,
        stats=tuple(tuple(r) for r in stats),
        labels=tuple(labels) if labels is not None else None,
        stat_names=tuple(stat_names) if stat_names is not None else None,
    )
    violations = validate(system)
    if violations:
        raise CliInputError("; ".join(violations))
    return system


def _read_document(path: str) -> FiniteSystem:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"invalid JSON: {exc}") from exc
    return document_to_system(doc)


def _emit(payload: dict | list, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_table(payload)


def _print_table(payload: dict | list, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                print(f"{pad}{key}:")
                _print_table(value, indent + 1)
            else:
                print(f"{pad}{key}: {json.dumps(value)}")
    else:
        for item in payload:
            if isinstance(item, (dict, list)):
                _print_table(item, indent)
                if indent == 0:
                    print()
            else:
                print(f"{pad}{json.dumps(item)}")


# -- report assembly --------------------------------------------------------


def _spectrum_payload(system: FiniteSystem, method: str):
    if method == "both":
        sp_g = spectrum(system, "galois")
        sp_c = spectrum(system, "cyclotomic")
        if sp_g != sp_c:
            raise RuntimeError(
                "spectrum methods disagree "
                f"(galois {sp_g.mults}, cyclotomic {sp_c.mults})"
            )
        sp = sp_g
    else:
        sp = spectrum(system, method)
    entries = [
        {
            "exponent": j,
            "root_order": sp.order // math.gcd(j, sp.order),
            "multiplicity": sp.mults[j],
        }
        for j in range(sp.order)
    ]
    return sp, entries


def _homomesy_payload(system: FiniteSystem) -> list[dict]:
    report = statistic_report(system)
    out = []
    for verdict in report.verdicts:
        out.append(
            {
                "name": verdict.name,
                "verdict": verdict.verdict,
                "c": _rational_to_json(verdict.homomesy)
                if verdict.homomesy is not None
                else None,
            }
        )
    return out


def _flatness_payload(system: FiniteSystem) -> dict | None:
    if system.period < 2:
        return None
    flat = flatness_report(system)
    return {
        "min_nonunital": flat.min_nonunital,
        "max_nonunital": flat.max_nonunital,
        "ratio": _rational_to_json(flat.ratio) if flat.ratio is not None else None,
    }


def analysis_report(system: FiniteSystem, method: str) -> dict:
    pm = presenting_matrix(system)
    sp, entries = _spectrum_payload(system, method)
    basis = invariant_basis(system)
    return {
        "dim_V": pm.matrix.rank(),
        "spectrum": entries,
        "invariant_basis": [[_rational_to_json(v) for v in f] for f in basis],
        "zero_mesic_dimension": shifted_difference(pm).rank(),
        "homomesies": _homomesy_payload(system),
        "flatness": _flatness_payload(system),
    }


# -- subcommands -------------------------------------------------------------


def _cmd_builtin(args: argparse.Namespace) -> int:
    family = args.family
    if family == "negation":
        system = negation_system()
    else:
        if args.n is None or args.k is None:
            raise CliInputError(f"family {family!r} needs --n and --k")
        builder = {
            "multiset": multiset_rotation,
            "chain": chain_rowmotion,
            "distinct": distinct_multiset_rotation,
        }[family]
        try:
            system = builder(args.n, args.k)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    print(json.dumps(system_to_document(system), indent=2))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    _emit(analysis_report(system, args.method), args.output)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    sp, entries = _spectrum_payload(system, args.method)
    _emit({"order": sp.order, "spectrum": entries}, args.output)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    basis = invariant_basis(system)
    payload = {
        "dim_V1": len(basis),
        "invariant_basis": [[_rational_to_json(v) for v in f] for f in basis],
    }
    _emit(payload, args.output)
    return 0


def _cmd_homomesies(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    _emit({"homomesies": _homomesy_payload(system)}, args.output)
    return 0


def _cmd_extend_products(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    print(json.dumps(system_to_document(extend_products(system)), indent=2))
    return 0


def _parse_exponents(raw: str) -> tuple[int, ...]:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"exponent vector is not valid JSON: {exc}") from exc
    if (
        not isinstance(data, list)
        or len(data) != 5
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in data)
    ):
        raise CliInputError("exponent vector must be a JSON array of 5 integers")
    return tuple(data)


def _cmd_lyness(args: argparse.Namespace) -> int:
    vector = _parse_exponents(args.vector)
    payload: dict = {
        "vector": list(vector),
        "pullback": list(lyness_pullback(vector)),
        "orbit_sum": [int(v) for v in lyness_orbit_sum_operator().apply(vector)],
        "zero_mesic": lyness_homomesy_check(vector),
    }
    if args.seed is not None:
        parts = args.seed.split(",")
        if len(parts) != 2:
            raise CliInputError('--seed expects "x,y"')
        try:
            seed = (Fraction(parts[0]), Fraction(parts[1]))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"bad seed: {exc}") from exc
        try:
            payload["numeric_orbit_sum"] = lyness_numeric_orbit_sum(vector, seed)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    _emit(payload, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = run_checks(only=args.only, perturb_lyness=args.perturb_lyness)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        print(
            json.dumps(
                [
                    {
                        "block": r.block,
                        "name": r.name,
                        "expected": r.expected,
                        "got": r.got,
                        "passed": r.passed,
                    }
                    for r in results
                ],
                indent=2,
            )
        )
    else:
        width = max(len(f"{r.block}: {r.name}") for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            label = f"{r.block}: {r.name}"
            line = f"{label:<{width}}  {status}"
            if not r.passed:
                line += f"  expected {r.expected}, got {r.got}"
            print(line)
        print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynspan",
        description="Exact spectral analysis of finite periodic systems with statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_builtin = sub.add_parser("builtin", help="emit a built-in system as JSON")
    p_builtin.add_argument(
        "family", choices=["multiset", "chain", "distinct", "negation"]
    )
    p_builtin.add_argument("--n", type=int, default=None)
    p_builtin.add_argument("--k", type=int, default=None)
    p_builtin.set_defaults(func=_cmd_builtin)

    def add_input_flags(p: argparse.ArgumentParser, with_method: bool = True) -> None:
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="system document path, or - for stdin (default)",
        )
        if with_method:
            p.add_argument(
                "--method",
                choices=["galois", "cyclotomic", "both"],
                default="both",
            )
        p.add_argument("--output", choices=["json", "table"], default="table")

    p_analyze = sub.add_parser("analyze", help="full analysis report")
    add_input_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_spectrum = sub.add_parser("spectrum", help="eigenvalue multiplicities only")
    add_input_flags(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_invariants = sub.add_parser("invariants", help="basis of the invariant space")
    add_input_flags(p_invariants, with_method=False)
    p_invariants.set_defaults(func=_cmd_invariants)

    p_hom = sub.add_parser("homomesies", help="classify the original statistics")
    add_input_flags(p_hom, with_method=False)
    p_hom.set_defaults(func=_cmd_homomesies)

    p_ext = sub.add_parser(
        "extend-products", help="emit the degree-2 product extension"
    )
    add_input_flags(p_ext, with_method=False)
    p_ext.set_defaults(func=_cmd_extend_products)

    p_lyness = sub.add_parser(
        "lyness", help="exponent-vector action of the period-5 map"
    )
    p_lyness.add_argument("vector", help="JSON array of 5 integers")
    p_lyness.add_argument("--seed", default=None, help='rational point "x,y"')
    p_lyness.add_argument("--output", choices=["json", "table"], default="table")
    p_lyness.set_defaults(func=_cmd_lyness)

    p_verify = sub.add_parser(
        "verify-paper", help="recompute every documented result and report"
    )
    p_verify.add_argument(
        "--only", default=None, help=f"one of: {', '.join(BLOCK_NAMES)}"
    )
    p_verify.add_argument(
        "--perturb-lyness",
        action="store_true",
        help="debug: corrupt one matrix entry to demonstrate failure detection",
    )
    p_verify.add_argument("--output", choices=["json", "table"], default="table")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
