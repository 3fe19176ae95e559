"""Command-line interface: build, ingest and analyze systems; run the checks.

Systems travel as JSON documents with keys "period", "perm", "stats" and
optional "labels" / "stat_names".  Rationals serialize as plain integers
when integral and as "p/q" strings otherwise, so nothing ever rounds.  A
document cell and a `lyness --seed` coordinate are read alike: an integer
or "p/q", in ASCII digits.
Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including a system past the size budget, |X| * n * max(k, 1) > MAX_CELLS,
for `extend-products` a system whose extension would be past it, an integer
literal or "p/q" integer longer than sys.get_int_max_str_digits() digits,
JSON nested deeper than the recursion limit, a document file that is not
UTF-8, a result with an integer that long, which could not be printed, and
a `lyness` exponent too large for the floating-point orbit sum of `--seed`),
3 internal error (an unexpected exception, reported in one line on stderr),
141 stdout closed by its reader before the output was written (128 + SIGPIPE,
what a shell reports for `yes | head -1`; nothing is printed on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain

from .exact import _int_product
from .families import (
    chain_rowmotion,
    distinct_multiset_rotation,
    multiset_rotation,
    negation_system,
)
from .linearize import (
    _orbit_index,
    extend_products,
    flatness_report,
    invariant_basis,
    spectrum,
    statistic_report,
    zero_mesic_dimension,
)
from .lyness import (
    lyness_homomesy_check,
    lyness_numeric_orbit_sum,
    lyness_orbit_sum_operator,
    lyness_pullback,
)
from .system import FiniteSystem, orbits, validate
from .verify import BLOCK_NAMES, run_checks

__all__ = ["main", "run"]

# the one grammar of every rational read from text: ASCII digits, whole string
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

# The most cells |X| * n * max(k, 1) of a presenting matrix a system may have.
MAX_CELLS = 10**6


class CliInputError(Exception):
    """Bad document or bad parameters; maps to exit code 2."""


def _check_budget(size: int, period: int, num_stats: int) -> None:
    """Reject a system before anything proportional to its size is built."""
    # the product is not printed: it may have more digits than str() allows
    if size * period * max(num_stats, 1) > MAX_CELLS:
        raise CliInputError(
            f"system too large: |X| * n * max(k, 1) is over the budget of {MAX_CELLS}"
        )


def _too_long() -> CliInputError:
    return CliInputError(
        "a result has an integer with more than "
        f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits"
    )


def _rational_to_json(q: Fraction) -> int | str:
    if q.denominator == 1:  # printed, or rejected as too long, by `_emit`
        return q.numerator
    try:
        return str(q)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise _too_long() from exc


def _parse_rational(value: object) -> Fraction:
    """The rational of a document cell or a `--seed` coordinate, an integer or
    a "p/q" string; errors name no location."""
    if isinstance(value, bool):
        raise CliInputError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise CliInputError(f'{value!r} does not match the rational pattern "p/q"')
        # the pattern is checked, so the two integers are read directly
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise CliInputError(str(exc)) from exc
    raise CliInputError("expected an integer or a rational string")


def system_to_document(system: FiniteSystem) -> dict:
    """The JSON document of a system, written from its integer grid: each
    distinct value is converted once, and builds no `stats` view."""
    lcm, rows = system.grid
    value = {
        v: _rational_to_json(Fraction(v, lcm)) for v in set(chain.from_iterable(rows))
    }
    doc: dict = {
        "period": system.period,
        "perm": list(system.perm),
        "stats": [list(map(value.__getitem__, row)) for row in rows],
    }
    if system.labels is not None:
        doc["labels"] = list(system.labels)
    if system.stat_names is not None:
        doc["stat_names"] = list(system.stat_names)
    return doc


def _parse_stats(
    rows: list[list], problems: list[str]
) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """The integer grid `(L, rows)` of a document's statistics.

    When every cell is a JSON integer or string, each distinct value is
    parsed once, L is the lcm of their reduced denominators, and the grid,
    each value times L, is read from one table by `map`; with every cell an
    integer, L = 1 and the grid rows are the JSON rows.  Otherwise, or when
    a value does not parse, every cell is checked on its own and each bad
    one is added to `problems` at its location, and None is returned: a cell
    of any other type is never a rational, so that path always finds one.
    """
    types = set(map(type, chain.from_iterable(rows)))
    if types <= {int}:
        return 1, tuple(map(tuple, rows))
    if types <= {int, str}:
        values: dict[int | str, Fraction] = {}
        try:
            for v in set(chain.from_iterable(rows)):
                values[v] = _parse_rational(v)
        except CliInputError:
            pass
        else:
            lcm = math.lcm(*{q.denominator for q in values.values()})
            scaled = {v: q.numerator * (lcm // q.denominator) for v, q in values.items()}
            return lcm, tuple(tuple(map(scaled.__getitem__, row)) for row in rows)
    # each distinct int or string is checked once, keyed by type too so that
    # True is not a checked 1; a value of any other type, never a rational and
    # perhaps not hashable, is keyed by its location
    error: dict[tuple, str | None] = {}
    for x, row in enumerate(rows):
        for i, v in enumerate(row):
            key = (type(v), v) if isinstance(v, (int, str)) else (x, i)
            if key not in error:
                error[key] = None
                try:
                    _parse_rational(v)
                except CliInputError as exc:
                    error[key] = str(exc)
            if error[key] is not None:
                problems.append(f"stats[{x}][{i}]: {error[key]}")
    return None


def document_to_system(doc: object) -> FiniteSystem:
    """The system of a JSON document, or CliInputError naming every problem.
    "perm", "labels" and "stat_names" are checked by one scan of their element
    types, exactly int or str: it rejects a bool or any other subclass of int
    or str, which JSON never produces."""
    if not isinstance(doc, dict):
        raise CliInputError("document must be a JSON object")
    problems: list[str] = []
    period = doc.get("period")
    if not isinstance(period, int) or isinstance(period, bool):
        problems.append('"period" must be an integer')
        period = 1
    perm = doc.get("perm")
    if not isinstance(perm, list) or not set(map(type, perm)) <= {int}:
        problems.append('"perm" must be an array of integers')
        perm = []
    elif not perm:
        problems.append('"perm" must not be empty: X needs at least one element')
    stats_raw = doc.get("stats")
    grid = None
    if not isinstance(stats_raw, list) or not all(
        isinstance(r, list) for r in stats_raw
    ):
        problems.append('"stats" must be an array of arrays')
    else:
        if not problems:
            # |X|, n and k are known from the shape: reject before any cell is read
            _check_budget(len(perm), period, len(stats_raw[0]) if stats_raw else 0)
        grid = _parse_stats(stats_raw, problems)
    labels = doc.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not set(map(type, labels)) <= {str}
    ):
        problems.append('"labels" must be an array of strings')
        labels = None
    stat_names = doc.get("stat_names")
    if stat_names is not None and (
        not isinstance(stat_names, list) or not set(map(type, stat_names)) <= {str}
    ):
        problems.append('"stat_names" must be an array of strings')
        stat_names = None
    if problems:
        raise CliInputError("; ".join(problems))
    system = FiniteSystem(perm, period, labels=labels, stat_names=stat_names, grid=grid)
    violations = validate(system)
    if violations:
        raise CliInputError("; ".join(violations))
    return system


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise CliInputError(f"{what}: integer literal too long: {exc}") from exc
    except RecursionError as exc:
        raise CliInputError(f"{what} is nested too deeply to read") from exc


def _read_document(path: str) -> FiniteSystem:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    return document_to_system(_load_json(raw, "document"))


def _emit(payload: dict | list, output: str) -> None:
    """Print the payload, rendered whole first, so a failure prints nothing.
    Its bytes go to stdout's binary layer until all are taken: unbuffered
    (PYTHONUNBUFFERED), a write that a closing reader cuts short takes a
    part, and the next raises BrokenPipeError; one that a full non-blocking
    stdout refuses raises BlockingIOError.  A stdout with no binary layer,
    such as a caller's StringIO, is written as text."""
    try:
        if output == "json":
            text = json.dumps(payload, indent=2) + "\n"
        else:
            text = "".join(f"{line}\n" for line in _table_lines(payload))
    except ValueError as exc:  # an int past sys.get_int_max_str_digits()
        raise _too_long() from exc
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        print(text, end="")
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding))
    while data:
        written = out.write(data)
        if written is None:
            raise BlockingIOError("stdout is non-blocking and full")
        data = data[written:]


def _table_lines(payload: dict | list, indent: int = 0) -> Iterator[str]:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value:
                yield f"{pad}{key}:"
                yield from _table_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {json.dumps(value)}"
    else:
        for item in payload:
            if isinstance(item, (dict, list)):
                yield from _table_lines(item, indent)
                if indent == 0:
                    yield ""
            else:
                yield f"{pad}{json.dumps(item)}"


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


def _basis_payload(system: FiniteSystem) -> list[list[int | str]]:
    """The invariant basis as JSON values.  Each basis function is constant
    on orbits, so each value is converted once per orbit, at its first
    element, and the result is copied to the orbit's other elements."""
    starts = [c[0] for c in orbits(system)]
    orbit_of = _orbit_index(system)
    return [
        list(map([_rational_to_json(f[x]) for x in starts].__getitem__, orbit_of))
        for f in invariant_basis(system)
    ]


def analysis_report(system: FiniteSystem, method: str) -> dict:
    """The `analyze` report.  The flatness payload runs first: its galois
    spectrum has the top closure name the orbits that every later rank reads
    (`linearize._orbit_selection`), under any method."""
    flatness = _flatness_payload(system)
    sp, entries = _spectrum_payload(system, method)
    return {
        "dim_V": sp.dimension,
        "spectrum": entries,
        "invariant_basis": _basis_payload(system),
        "zero_mesic_dimension": zero_mesic_dimension(system),
        "homomesies": _homomesy_payload(system),
        "flatness": flatness,
    }


# -- subcommands -------------------------------------------------------------


def _cmd_builtin(args: argparse.Namespace) -> int:
    family = args.family
    if family == "negation":
        system = negation_system()
    else:
        n, k = args.n, args.k
        if n is None or k is None:
            raise CliInputError(f"family {family!r} needs --n and --k")
        if n >= 1 and k >= 1:  # the builders reject other values
            # every family built from valid (n, k) has at least n * k cells,
            # so that bound is tested first and math.comb stays small
            _check_budget(1, n, k)
            size = math.comb(n, k) if family == "distinct" else math.comb(n + k - 1, k)
            _check_budget(size, k + 1 if family == "chain" else n, k)
        builder = {
            "multiset": multiset_rotation,
            "chain": chain_rowmotion,
            "distinct": distinct_multiset_rotation,
        }[family]
        try:
            system = builder(n, k)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    _emit(system_to_document(system), "json")
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
    basis = _basis_payload(_read_document(args.input))
    payload = {"dim_V1": len(basis), "invariant_basis": basis}
    _emit(payload, args.output)
    return 0


def _cmd_homomesies(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    _emit({"homomesies": _homomesy_payload(system)}, args.output)
    return 0


def _cmd_extend_products(args: argparse.Namespace) -> int:
    system = _read_document(args.input)
    # the output has at most m(m+3)/2 statistics, m = k*n: the shifted
    # statistics and their pairwise products, before deduplication; it must
    # fit the budget `analyze` applies to it
    m = system.num_stats * system.period
    _check_budget(system.size, system.period, m * (m + 3) // 2)
    _emit(system_to_document(extend_products(system)), "json")
    return 0


def _parse_exponents(raw: str) -> tuple[int, ...]:
    data = _load_json(raw, "exponent vector")
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
        "orbit_sum": list(_int_product(lyness_orbit_sum_operator(), vector)),
        "zero_mesic": lyness_homomesy_check(vector),
    }
    if args.seed is not None:
        parts = args.seed.split(",")
        if len(parts) != 2:
            raise CliInputError('--seed expects "x,y"')
        try:
            seed = (_parse_rational(parts[0]), _parse_rational(parts[1]))
        except CliInputError as exc:
            raise CliInputError(f"--seed: {exc}") from exc
        try:
            payload["numeric_orbit_sum"] = lyness_numeric_orbit_sum(vector, seed)
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        except OverflowError as exc:
            raise CliInputError(f"exponents too large for --seed: {exc}") from exc
    _emit(payload, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = run_checks(only=args.only)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    failed = [r for r in results if not r.passed]
    if args.output == "json":
        _emit([dataclasses.asdict(r) for r in results], "json")
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

    def add_input_flags(
        p: argparse.ArgumentParser, with_method: bool = True, with_output: bool = True
    ) -> None:
        help_text = "system document path, or - for stdin (default)"
        p.add_argument("input", nargs="?", default="-", help=help_text)
        if with_method:
            p.add_argument("--method", choices=["galois", "cyclotomic", "both"], default="both")
        if with_output:
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
        "extend-products", help="emit the degree-2 product extension as JSON"
    )
    add_input_flags(p_ext, with_method=False, with_output=False)
    p_ext.set_defaults(func=_cmd_extend_products)

    p_lyness = sub.add_parser(
        "lyness", help="exponent-vector action of the period-5 map"
    )
    p_lyness.add_argument("vector", help="JSON array of 5 integers")
    p_lyness.add_argument(
        "--seed", help='rational point "x,y", each an integer or p/q; x < 0 needs --seed=-2,3'
    )
    p_lyness.add_argument("--output", choices=["json", "table"], default="table")
    p_lyness.set_defaults(func=_cmd_lyness)

    p_verify = sub.add_parser(
        "verify-paper", help="recompute every documented result and report"
    )
    p_verify.add_argument(
        "--only", default=None, help=f"one of: {', '.join(BLOCK_NAMES)}"
    )
    p_verify.add_argument("--output", choices=["json", "table"], default="table")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush of what
        # is still buffered, at interpreter exit, cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
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
