import contextlib
import io
import json
import math
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import fcntl
except ImportError:  # not on every platform
    fcntl = None

from dynspan import cli
from dynspan.cli import (
    MAX_CELLS,
    CliInputError,
    analysis_report,
    document_to_system,
    main,
    system_to_document,
)
from dynspan.system import FiniteSystem, minimal_period

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def subprocess_env() -> dict:
    """The environment, with the package sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuiltin:
    def test_a_text_stdout_gets_the_same_text(self, capsys):
        argv = ["builtin", "multiset", "--n", "3", "--k", "3"]
        code, expected, _ = run_cli(capsys, *argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code == 0
        assert out.getvalue() == expected

    def test_multiset_3_3(self, capsys):
        doc = run_json(capsys, "builtin", "multiset", "--n", "3", "--k", "3")
        assert doc["period"] == 3
        assert len(doc["perm"]) == 10
        assert doc["labels"][0] == "000"
        assert doc["stats"][1] == [0, 0, 1]

    def test_negation(self, capsys):
        doc = run_json(capsys, "builtin", "negation")
        assert doc["perm"] == [1, 0]
        assert doc["stats"] == [[1], [-1]]

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "builtin", "multiset", "--n", "1", "--k", "2")
        assert code == 2
        assert "n >= 2" in err

    def test_missing_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "builtin", "chain")
        assert code == 2

    @pytest.mark.parametrize(
        "family, n, k",
        [("multiset", 60, 30), ("chain", 60, 30), ("distinct", 10**9, 2),
         ("multiset", 10**12, 10**12)],
    )
    def test_oversized_family_exit_2_before_building(
        self, capsys, monkeypatch, family, n, k
    ):
        def never(n, k):
            raise AssertionError("an oversized family was built")

        for name in (
            "multiset_rotation", "chain_rowmotion", "distinct_multiset_rotation"
        ):
            monkeypatch.setattr(f"dynspan.cli.{name}", never)
        argv = ["builtin", family, "--n", str(n), "--k", str(k)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: system too large") and err.count("\n") == 1

    def test_unknown_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["builtin", "mystery"])
        assert exc.value.code == 2


def write_builtin(capsys, tmp_path, *argv):
    code, out, err = run_cli(capsys, "builtin", *argv)
    assert code == 0, err
    path = tmp_path / "system.json"
    path.write_text(out)
    return path


class TestAnalyze:
    def test_multiset_2_3(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "2", "--k", "3")
        report = run_json(capsys, "analyze", str(path), "--output", "json")
        assert report["dim_V"] == 4
        assert report["spectrum"] == [
            {"exponent": 0, "root_order": 1, "multiplicity": 2},
            {"exponent": 1, "root_order": 2, "multiplicity": 2},
        ]
        assert report["zero_mesic_dimension"] == 2
        assert report["dim_V"] == sum(e["multiplicity"] for e in report["spectrum"])

    def test_chain_3_3_homomesies(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "chain", "--n", "3", "--k", "3")
        report = run_json(capsys, "analyze", str(path), "--output", "json")
        assert report["homomesies"] == [
            {"name": "g1", "verdict": "c-mesic", "c": "1/2"},
            {"name": "g2", "verdict": "c-mesic", "c": 1},
            {"name": "g3", "verdict": "c-mesic", "c": "3/2"},
        ]

    def test_flatness_of_counterexample(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "distinct", "--n", "4", "--k", "2")
        report = run_json(capsys, "analyze", str(path), "--output", "json")
        assert report["flatness"] == {
            "min_nonunital": 1,
            "max_nonunital": 2,
            "ratio": 2,
        }

    def test_malformed_stats_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"period": 2, "perm": [1, 0], "stats": [[1], [1, 2]]})
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "stats row 1" in err

    def test_bad_rational_string_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"period": 1, "perm": [0], "stats": [["1.5"]]})
        )
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "pattern" in err

    @pytest.mark.parametrize("cell", ["1\n", "\u0661/2", "2/\u0663", " 1", "+1", "1_0"])
    def test_cell_is_the_whole_string_in_ascii_digits(self, cell):
        # the pattern must match all of the cell: "$" alone also matches before a
        # final newline, and int() would read a non-ASCII digit
        doc = {"period": 1, "perm": [0], "stats": [[cell]]}
        with pytest.raises(CliInputError) as info:
            document_to_system(doc)
        assert str(info.value) == f'stats[0][0]: {cell!r} does not match the rational pattern "p/q"'

    def test_repeated_values_share_a_fraction_but_not_a_verdict(self):
        # a boolean after an equal integer, and a bad value seen twice, are
        # each rejected at their own location
        stats = [[1, "x"], [True, "x"], [1.0, 1]]
        doc = {"period": 1, "perm": [0, 1, 2], "stats": stats}
        with pytest.raises(CliInputError) as info:
            document_to_system(doc)
        assert str(info.value) == (
            "stats[0][1]: 'x' does not match the rational pattern \"p/q\"; "
            "stats[1][0]: booleans are not rationals; "
            "stats[1][1]: 'x' does not match the rational pattern \"p/q\"; "
            "stats[2][0]: expected an integer or a rational string"
        )
        doc = {"period": 1, "perm": [0, 1], "stats": [[1, "1/2"], ["1/2", "1"]]}
        stats = document_to_system(doc).stats
        assert stats[0][1] is stats[1][0] == Fraction(1, 2)
        assert stats[0][0] == stats[1][1] == 1

    def test_invalid_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2

    def test_deeply_nested_document_exit_2(self, capsys, tmp_path, monkeypatch):
        nested = "[" * 5000
        path = tmp_path / "deep.json"
        path.write_text(nested)
        for argv in (("analyze", str(path)), ("spectrum", "-")):
            monkeypatch.setattr("sys.stdin", io.StringIO(nested))
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "internal error" not in err

    def test_document_not_utf8_exit_2(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read ") and err.count("\n") == 1
        assert "internal error" not in err

    def test_empty_system_exit_2(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"period": 1, "perm": [], "stats": []}))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at least one element" in err

    def test_oversized_document_exit_2_before_validate(
        self, capsys, tmp_path, monkeypatch
    ):
        def never(system):
            raise AssertionError("validate ran on an oversized system")

        monkeypatch.setattr("dynspan.cli.validate", never)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"period": 10**9, "perm": [0], "stats": [[1]]}))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: system too large") and err.count("\n") == 1

    def test_size_budget_boundary(self):
        size, period = 1000, MAX_CELLS // 1000
        doc = {"period": period, "perm": list(range(size)), "stats": [[1]] * size}
        assert document_to_system(doc).period == period
        doc["period"] += 1
        with pytest.raises(CliInputError, match="too large"):
            document_to_system(doc)

    def test_oversized_document_rejected_before_any_cell_is_read(self, monkeypatch):
        # |X|, n and k are known from the shape, so no cell is parsed, and an
        # oversized document with bad cells too reports its size
        size, period = 1000, MAX_CELLS // 1000 + 1
        doc = {"period": period, "perm": list(range(size)), "stats": [[1.5]] * size}
        with pytest.raises(CliInputError, match="too large"):
            document_to_system(doc)

        def never(value):
            raise AssertionError("a cell was parsed before the size budget")

        monkeypatch.setattr("dynspan.cli._parse_rational", never)
        doc["stats"] = [["1/2"]] * size
        with pytest.raises(CliInputError, match="too large"):
            document_to_system(doc)

    @pytest.mark.parametrize(
        "stats, problems",
        [
            ([[1, True], [True, 1]], ["[0][1]: booleans", "[1][0]: booleans"]),
            ([[1.5, "1/2"], ["1/2", 1.5]], ["[0][0]: expected", "[1][1]: expected"]),
            ([["x", 2], [2, "x"]], ["[0][0]: 'x' does not", "[1][1]: 'x' does not"]),
            (
                [[1, True], [1.5, "2/3"], ["x", 1], ["2/3", "x"]],
                ["[0][1]: booleans", "[1][0]: expected", "[2][0]: 'x' does not",
                 "[3][1]: 'x' does not"],
            ),
        ],
        ids=["bool", "float", "bad string", "all three"],
    )
    def test_every_bad_cell_is_reported_at_its_location(self, stats, problems):
        # a cell that is not an int or a string, or a string that does not
        # parse, sends the document through the per-cell check
        doc = {"period": 1, "perm": list(range(len(stats))), "stats": stats}
        with pytest.raises(CliInputError) as info:
            document_to_system(doc)
        found = str(info.value).split("; ")
        assert len(found) == len(problems)
        for message, want in zip(found, problems):
            assert message.startswith(f"stats{want}")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("perm", [1, True, 0], '"perm" must be an array of integers'),
            ("perm", [1, 0, 2.0], '"perm" must be an array of integers'),
            ("labels", ["a", 1, "c"], '"labels" must be an array of strings'),
            ("stat_names", ["g", None], '"stat_names" must be an array of strings'),
        ],
        ids=["bool in perm", "float in perm", "int label", "null name"],
    )
    def test_each_array_is_checked_by_one_type_scan(self, key, value, message):
        # the scan accepts exactly int (or str) elements: a bool is rejected
        doc = dict(VALID, **{key: value})
        with pytest.raises(CliInputError) as info:
            document_to_system(doc)
        assert str(info.value) == message

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
    )
    @pytest.mark.parametrize("quoted", [False, True], ids=["number", "p/q string"])
    def test_oversized_integer_literal_exit_2(self, capsys, tmp_path, quoted):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        value = f'"1/{digits}"' if quoted else digits
        path = tmp_path / "long.json"
        path.write_text(f'{{"period": 1, "perm": [0], "stats": [[{value}]]}}')
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit" in err

    @pytest.mark.parametrize(
        "stats",
        [
            # each input is under the digit limit; the orbit average is over it
            [["1/" + str(10**3999 + 1)], ["1/" + str(10**3999 + 3)]],
            # the invariant basis holds g(x) + g(T x), one digit longer than g
            [[10 ** sys.get_int_max_str_digits() - 1]] * 2,
        ],
        ids=["rational", "integer"],
    )
    def test_report_value_too_long_to_print_exit_2(self, capsys, tmp_path, stats):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"period": 2, "perm": [1, 0], "stats": stats}))
        code, out, err = run_cli(capsys, "analyze", str(path), "--output", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys.get_int_max_str_digits()" in err

    def test_unexpected_exception_exit_3(self, capsys, tmp_path, monkeypatch):
        path = write_builtin(capsys, tmp_path, "negation")

        def broken(system, method):
            raise RuntimeError("two\nlines")

        monkeypatch.setattr("dynspan.cli.analysis_report", broken)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: two lines\n"

    def test_stdin_input(self, capsys, tmp_path, monkeypatch):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "2", "--k", "2")
        monkeypatch.setattr("sys.stdin", io.StringIO(path.read_text()))
        report = run_json(capsys, "analyze", "--output", "json")
        assert report["dim_V"] == 3

    def test_report_is_deterministic(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "3", "--k", "2")
        _, out1, _ = run_cli(capsys, "analyze", str(path), "--output", "json")
        _, out2, _ = run_cli(capsys, "analyze", str(path), "--output", "json")
        assert out1 == out2

    def test_rationals_round_trip(self, capsys, tmp_path):
        doc = {
            "period": 2,
            "perm": [1, 0],
            "stats": [["1/2"], ["-1/2"]],
            "stat_names": ["g1"],
        }
        path = tmp_path / "halves.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, "analyze", str(path), "--output", "json")
        assert report["dim_V"] == 1

    @pytest.mark.parametrize(
        "family,n,k",
        [("multiset", 2, 2), ("multiset", 3, 3), ("chain", 3, 2), ("distinct", 4, 2)],
    )
    def test_round_trip_all_families(self, capsys, tmp_path, family, n, k):
        path = write_builtin(capsys, tmp_path, family, "--n", str(n), "--k", str(k))
        report = run_json(capsys, "analyze", str(path), "--output", "json")
        assert report["dim_V"] >= 1

    def test_table_output(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "2", "--k", "2")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "dim_V: 3" in out


class TestSubReports:
    def test_spectrum_methods_agree(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "4", "--k", "2")
        galois = run_json(
            capsys, "spectrum", str(path), "--method", "galois", "--output", "json"
        )
        cyclo = run_json(
            capsys, "spectrum", str(path), "--method", "cyclotomic", "--output", "json"
        )
        assert galois == cyclo

    def test_invariants_negation(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "negation")
        payload = run_json(capsys, "invariants", str(path), "--output", "json")
        assert payload == {"dim_V1": 0, "invariant_basis": []}

    def test_homomesies(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "chain", "--n", "4", "--k", "2")
        payload = run_json(capsys, "homomesies", str(path), "--output", "json")
        assert payload["homomesies"][0]["c"] == 1
        assert payload["homomesies"][1]["c"] == 2

    def test_extend_products_pipes_back_into_analyze(self, capsys, tmp_path):
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "2", "--k", "2")
        code, out, err = run_cli(capsys, "extend-products", str(path))
        assert code == 0, err
        extended = json.loads(out)
        assert len(extended["stats"][0]) > 4
        ext_path = tmp_path / "extended.json"
        ext_path.write_text(out)
        report = run_json(capsys, "analyze", str(ext_path), "--output", "json")
        assert report["dim_V"] == sum(e["multiplicity"] for e in report["spectrum"])

    @pytest.mark.parametrize("output", ["json", "table"])
    def test_extend_products_has_no_output_flag(self, capsys, tmp_path, output):
        # it always prints a system document, which is JSON
        path = write_builtin(capsys, tmp_path, "multiset", "--n", "3", "--k", "2")
        with pytest.raises(SystemExit) as exc:
            main(["extend-products", str(path), "--output", output])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_extend_products_rejects_an_extension_past_the_budget(
        self, capsys, tmp_path, monkeypatch
    ):
        # 14,400 cells in; the extension would have 120 * 120 * 7380 cells
        def never(system):
            raise AssertionError("extend_products ran past the size budget")

        monkeypatch.setattr("dynspan.cli.extend_products", never)
        size = 120
        doc = {
            "period": size,
            "perm": [(x + 1) % size for x in range(size)],
            "stats": [[x % 7] for x in range(size)],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "extend-products", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: system too large") and err.count("\n") == 1


    def test_extend_products_value_too_long_to_print_exit_2(self, capsys, tmp_path):
        # each input is under the digit limit; its square, a product
        # statistic, is over it, and is an integer, which `_emit` rejects
        big = 10 ** (sys.get_int_max_str_digits() // 2 + 10)
        doc = {"period": 2, "perm": [1, 0], "stats": [[big], [1]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "extend-products", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys.get_int_max_str_digits()" in err


class TestLynessCommand:
    def test_pullback_of_x(self, capsys):
        payload = run_json(capsys, "lyness", "[1,0,0,0,0]", "--output", "json")
        assert payload["pullback"] == [0, 1, 0, 0, 0]
        assert payload["orbit_sum"] == [-1, -1, 1, 1, 1]
        assert payload["zero_mesic"] is False

    def test_zero_mesic_vector_with_seed(self, capsys):
        payload = run_json(
            capsys, "lyness", "[-2,0,1,0,0]", "--seed", "1,1", "--output", "json"
        )
        assert payload["zero_mesic"] is True
        assert abs(payload["numeric_orbit_sum"]) < 1e-9

    def test_negative_seed_in_the_equals_form(self, capsys):
        # "--seed -2,3" would read -2,3 as an option; "--seed=-2,3" does not
        payload = run_json(
            capsys, "lyness", "[-2,0,1,0,0]", "--seed=-2,3", "--output", "json"
        )
        assert payload["zero_mesic"] is True
        assert abs(payload["numeric_orbit_sum"]) < 1e-9

    def test_fractional_seed(self, capsys):
        payload = run_json(
            capsys, "lyness", "[0,0,0,0,0]", "--seed", "3/7,2/5", "--output", "json"
        )
        assert payload["numeric_orbit_sum"] == 0.0

    def test_bad_vector_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "lyness", "[1,2]")
        assert code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
    )
    def test_oversized_exponent_exit_2(self, capsys):
        digits = "1" + "0" * sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "lyness", f"[{digits},0,0,0,0]", "--output", "json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
    )
    @pytest.mark.parametrize("output", ["json", "table"])
    def test_result_too_long_to_print_exit_2(self, capsys, output):
        # each exponent is readable, but the orbit sum of (a, b, 0, 0, 0) has
        # entries ±(a + b), one digit longer; no line of the result is printed
        nines = "9" * sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "lyness", f"[{nines},{nines},0,0,0]", "--output", output
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "sys.get_int_max_str_digits()" in err

    def test_seed_with_exponent_too_large_for_a_float_exit_2(self, capsys):
        vector = f"[{10**400},0,0,0,0]"
        code, out, err = run_cli(
            capsys, "lyness", vector, "--seed", "3/7,2/5", "--output", "json"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "internal error" not in err
        # without --seed the exact orbit sum is printed
        payload = run_json(capsys, "lyness", vector, "--output", "json")
        assert payload["orbit_sum"][0] == -(10**400)

    def test_deeply_nested_vector_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "lyness", "[" * 5000)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "internal error" not in err

    def test_seed_outside_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "lyness", "[1,0,0,0,0]", "--seed", "0,1")
        assert code == 2
        assert "domain" in err

    @pytest.mark.parametrize(
        "seed,factor",
        [("0,1", "x"), ("1,0", "y"), ("-1,1", "x+1"), ("1,-1", "y+1"),
         ("-1/2,-1/2", "x+y+1"), ("1,-0/3", "y")],
    )
    def test_each_factor_outside_the_domain_exit_2(self, capsys, seed, factor):
        code, out, err = run_cli(capsys, "lyness", "[-2,0,1,0,0]", f"--seed={seed}")
        assert (code, out) == (2, "")
        assert err == f"error: point outside the domain: {factor} = 0\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer string limit"
    )
    @pytest.mark.parametrize(
        "coordinate,fits",
        [
            ("{ones}/7", True),
            ("{ones}1/7", False),
            ("-1/{ones}", True),
            ("-1/{ones}1", False),
            # a decimal or exponent form is no "p/q": the pattern rejects it before
            # any integer is built, however large its exponent
            ("1e{limit}", False),
            ("1e-{limit}", False),
            ("1.{threes}", False),
            ("1e200000", False),
            ("-1e-200000", False),
            ("1e99999999999999999999", False),
        ],
    )
    def test_seed_digits_either_side_of_the_limit(self, capsys, coordinate, fits):
        # a coordinate reads like a document cell: int() bounds each of its two
        # integers by the limit, so a coordinate past it is rejected at once
        limit = sys.get_int_max_str_digits()
        coordinate = coordinate.format(limit=limit, ones="1" * limit, threes="3" * limit)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "lyness", "[-2,0,1,0,0]", f"--seed=3/7,{coordinate}", "--output", "json"
        )
        assert time.perf_counter() - start < 2
        if fits:
            assert code == 0, err
            assert abs(json.loads(out)["numeric_orbit_sum"]) < 1e-9
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: --seed: ") and err.count("\n") == 1
            assert ("limit" if "/" in coordinate else "pattern") in err

    @pytest.mark.parametrize(
        "coordinate", ["0.5", "1e200000", "1_0", "+1", " 1", "1 ", "1\n", "\u0661", "1/0"]
    )
    def test_seed_outside_the_cell_grammar_exit_2(self, capsys, coordinate):
        # the cell errors with --seed in front
        code, out, err = run_cli(capsys, "lyness", "[1,0,0,0,0]", f"--seed=1,{coordinate}")
        assert (code, out) == (2, "")
        assert err == (
            f'error: --seed: {coordinate!r} does not match the rational pattern "p/q"\n'
        )


class TestVerifyCommand:
    def test_fast_block_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "distinct")
        assert code == 0
        assert "pass" in out
        assert "FAIL" not in out

    def test_perturbed_matrix_is_caught(self, capsys, monkeypatch):
        from dynspan import verify
        from dynspan.lyness import lyness_matrix

        rows = [list(r) for r in lyness_matrix()]
        rows[0][0] += 1
        corrupted = tuple(map(tuple, rows))
        monkeypatch.setattr(verify, "lyness_matrix", lambda: corrupted)
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "lyness")
        assert code == 1
        assert "FAIL" in out
        assert "matrix order 5" in out

    def test_gcd_class_claim_is_tested(self, capsys, monkeypatch):
        # the cyclotomic spectrum ranks exponents 0, 1 and 2 of multiset(4,2)
        # and copies exponent 1's rank to 3; a different rank at 3 must fail
        from dynspan import verify
        from dynspan.families import multiset_rotation

        system = multiset_rotation(4, 2)
        monkeypatch.setattr(
            verify, "_structural_systems", lambda: [("multiset(4,2)", system)]
        )
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "structural")
        assert code == 0, out

        real = verify.zeta_matrix

        def skewed(pm, exponent):
            matrix = real(pm, exponent)
            if exponent != 3:
                return matrix
            return SimpleNamespace(rank=lambda: matrix.rank() + 1)

        monkeypatch.setattr(verify, "zeta_matrix", skewed)
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "structural")
        assert code == 1
        failed = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and "multiset(4,2) gcd classes" in failed[0]

    def test_coboundary_combination_is_checked(self, capsys, monkeypatch):
        # reversed weights plus 7 still give a function of V, which centring
        # makes 0-mesic, so every roundtrip holds; only the first trial's
        # comparison with the Fraction sum over the statistics can fail
        from dynspan import verify

        real = verify._integer_weights

        def mutated(pairs):
            den, ints = real(pairs)
            return den, [v + 7 for v in reversed(ints)]

        monkeypatch.setattr(verify, "_integer_weights", mutated)
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "coboundary", "--output", "json"
        )
        assert code == 1
        assert {item["got"] for item in json.loads(out)} == {"99/100"}

    def test_coboundary_rational_case(self, capsys, monkeypatch):
        # statistics whose scales are 3 and 6, under a non-minimal period
        from dynspan import verify

        q = Fraction
        system = FiniteSystem(
            perm=(1, 2, 0, 3),
            period=6,
            stats=((q(1, 3), q(5, 6)), (q(2, 3), q(1, 2)), (q(1), q(-1, 6)),
                   (q(1, 3), q(2))),
        )
        monkeypatch.setattr(verify, "_coboundary_cases", lambda: [("rational", system)])
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "coboundary")
        assert code == 0, out
        assert "rational roundtrips" in out
        # rows doubled, as if L were halved, form another function of V: the
        # first trial fails
        real = verify.presenting_matrix
        monkeypatch.setattr(
            verify,
            "presenting_matrix",
            lambda s: SimpleNamespace(rows=[[2 * v for v in row] for row in real(s).rows]),
        )
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "coboundary", "--output", "json"
        )
        assert code == 1
        assert json.loads(out)[0]["got"] == "99/100"

    def test_unknown_block_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify-paper", "--only", "bogus")
        assert code == 2
        assert "rotation-two" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "distinct", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(item["passed"] for item in payload)

    def test_json_layout(self, capsys):
        # the whole text: key order, indent 2, one trailing newline
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "distinct", "--output", "json"
        )
        assert code == 0
        assert out == (
            "[\n"
            "  {\n"
            '    "block": "distinct",\n'
            '    "name": "n=4 k=2 galois",\n'
            '    "expected": "(2, 1, 2, 1)",\n'
            '    "got": "(2, 1, 2, 1)",\n'
            '    "passed": true\n'
            "  },\n"
            "  {\n"
            '    "block": "distinct",\n'
            '    "name": "n=4 k=2 cyclotomic",\n'
            '    "expected": "(2, 1, 2, 1)",\n'
            '    "got": "(2, 1, 2, 1)",\n'
            '    "passed": true\n'
            "  }\n"
            "]\n"
        )


def test_long_non_minimal_period_finishes(tmp_path):
    # one 2-cycle under period 55440 (120 divisors, 110880 cells): only the
    # roots of order 1 and 2 are eigenvalues, and both routes stop there
    path = tmp_path / "p55440.json"
    path.write_text(json.dumps({"period": 55440, "perm": [1, 0], "stats": [[1], [0]]}))

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "dynspan.cli", *argv, str(path), "--output", "json"],
            capture_output=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    report = json.loads(run("analyze", "--method", "both"))
    assert report["dim_V"] == 2
    assert [r["multiplicity"] for r in report["spectrum"]][:3] == [1, 0, 0]
    galois = run("spectrum", "--method", "galois")
    assert galois == run("spectrum", "--method", "cyclotomic")
    assert json.loads(galois)["spectrum"][27720]["multiplicity"] == 1


def test_one_long_cycle_finishes(tmp_path):
    """One 300-cycle, k = 1, statistics from -9..9: every closure of the
    galois route and the 0-mesic closure queue the image of each basis row,
    which keeps its leading zeros, so the report takes about a second."""
    n, rng = 300, random.Random(300)
    doc = {"period": n, "perm": [(i + 1) % n for i in range(n)]}
    doc["stats"] = [[rng.randint(-9, 9)] for _ in range(n)]
    path = tmp_path / "c300.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "dynspan.cli", "analyze", str(path), "--method", "both", "--output", "json"],
        capture_output=True,
        env=subprocess_env(),
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["dim_V"] == sum(r["multiplicity"] for r in report["spectrum"]) == n


class TestClosedStdout:
    """A reader that closes stdout early gets exit 141 and an empty stderr."""

    def start(self, stdout=subprocess.PIPE, env=None):
        # about 150 KB of JSON, printed in one write
        argv = ["builtin", "multiset", "--n", "8", "--k", "6"]
        return subprocess.Popen(
            [sys.executable, "-m", "dynspan.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**subprocess_env(), **(env or {})},
        )

    def finish(self, proc):
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_reader_stops_after_one_line(self):
        # the output is one write, so a reader that wants only its first line
        # may close while that write runs.  A write cut short that way returns
        # the bytes it wrote, which unbuffered stdout does not retry, so the
        # read end is closed before the writer starts: its one write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.start(write_end)
        os.close(write_end)
        self.finish(proc)

    def test_full_non_blocking_stdout_is_an_error(self):
        # unbuffered, a write to a full non-blocking pipe takes nothing and
        # returns None: the command fails instead of retrying it forever
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        proc = self.start(write_end, {"PYTHONUNBUFFERED": "1"})
        os.close(write_end)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 3
        assert err.startswith(b"internal error: BlockingIOError")
        os.close(read_end)

    def test_reader_closed_at_once(self):
        proc = self.start()
        proc.stdout.close()
        self.finish(proc)

    @pytest.mark.skipif(
        not hasattr(fcntl, "F_SETPIPE_SZ"), reason="the pipe size cannot be set here"
    )
    def test_unbuffered_reader_stops_after_one_line(self):
        # unbuffered, stdout writes straight to the pipe, whose 4096 bytes
        # take only a part of the output; the reader closes after one line,
        # so a later write of the rest fails instead of being dropped
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = self.start(write_end, {"PYTHONUNBUFFERED": "1"})
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            assert reader.readline() == b"{\n"
        self.finish(proc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
VALID = {
    "period": 2,
    "perm": [1, 0, 2],
    "stats": [[1, "1/2"], [0, "-3/4"], [2, 5]],
    "labels": ["a", "b", "c"],
    "stat_names": ["g", "h"],
}


def assert_accepted_or_rejected(doc):
    try:
        system = document_to_system(doc)
    except CliInputError:
        return
    assert isinstance(system, FiniteSystem)


@settings(max_examples=150)
@given(json_values)
def test_document_to_system_fuzz_whole_documents(doc):
    assert_accepted_or_rejected(doc)


# JSON cells of rationals: integers, "p/q" and "p" strings, negatives, and
# one denominator far past a machine word
json_rationals = (
    st.integers(-20, 20)
    | st.integers(-20, 20).map(str)
    | st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(1, 12))
    | st.just(f"-7/{2**127 - 1}")
)


@st.composite
def ingest_documents(draw):
    """A valid document whose cells repeat a few drawn values."""
    size = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(size)))
    k = draw(st.integers(0, 3))
    pool = draw(st.lists(json_rationals, min_size=1, max_size=5))
    cells = st.sampled_from(pool)
    stats = [[draw(cells) for _ in range(k)] for _ in range(size)]
    period = minimal_period(FiniteSystem(perm=tuple(perm), period=1, stats=()))
    return {"period": period, "perm": perm, "stats": stats}


@settings(max_examples=150)
@given(ingest_documents())
@example({"period": 1, "perm": [0], "stats": [[]]})
@example({"period": 2, "perm": [1, 0], "stats": [[3, "3"], ["3", 3]]})
@example({"period": 2, "perm": [1, 0], "stats": [["1/2", f"-7/{2**127 - 1}"], [0, "-4/6"]]})
def test_ingest_builds_the_integer_grid_of_its_statistics(doc):
    system = document_to_system(doc)
    # the same statistics as Fractions, scaled by the constructor
    stats = [[Fraction(cell) for cell in row] for row in doc["stats"]]
    fresh = FiniteSystem(perm=doc["perm"], period=doc["period"], stats=stats)
    assert system.grid == fresh.grid
    assert all(type(v) is int for row in system.grid[1] for v in row)
    shared: dict = {}
    for row, cells in zip(system.stats, doc["stats"]):
        for value, cell in zip(row, cells):
            assert type(value) is Fraction
            assert value == Fraction(cell)
            # equal JSON values share one Fraction
            assert shared.setdefault((type(cell), cell), value) is value
    assert analysis_report(system, "both") == analysis_report(fresh, "both")


@settings(max_examples=150)
@given(ingest_documents(), st.booleans())
@example({"period": 1, "perm": [0, 1], "stats": [["2/2", "4/6"], ["-3/9", "0/5"]]}, True)
@example({"period": 2, "perm": [1, 0], "stats": [["6/4", 3], ["3/2", "-9/6"]]}, False)
def test_fraction_and_document_systems_are_one_system(doc, named):
    # a document (ints, "p/q" strings, non-reduced and repeated values) and
    # the same system built from Fractions have one grid, over the canonical
    # L, and so one stats view, equality, hash and repr
    if named:
        doc = dict(doc, labels=[str(x) for x in doc["perm"]])
    read = document_to_system(doc)
    built = FiniteSystem(
        perm=tuple(doc["perm"]),
        period=doc["period"],
        stats=tuple(tuple(Fraction(cell) for cell in row) for row in doc["stats"]),
        labels=doc.get("labels"),
    )
    # neither the ingest nor the document written back builds the view
    assert system_to_document(read) == system_to_document(built)
    assert "stats" not in read._memo
    assert read.grid == built.grid
    lcm, rows = read.grid
    assert lcm == math.lcm(*(Fraction(c).denominator for r in doc["stats"] for c in r))
    assert read.stats == built.stats
    assert all(type(v) is Fraction for row in read.stats for v in row)
    assert read == built and hash(read) == hash(built) and repr(read) == repr(built)
    # a grid passed in with a common factor is reduced to the same system
    tripled = (3 * lcm, [[3 * v for v in row] for row in rows])
    assert FiniteSystem(read.perm, read.period, labels=read.labels, grid=tripled) == read


LONG = "1" * 4301  # one digit past the default sys.get_int_max_str_digits()


@settings(max_examples=300)
@given(st.sampled_from(sorted(VALID)), json_values)
@example("stats", [[LONG]])
@example("stats", [[f"1/{LONG}"], ["0"], ["1"]])
@example("stats", [[10**4300], [0], [1]])
@example("period", 10**4300)
def test_document_to_system_fuzz_per_key(key, value):
    assert_accepted_or_rejected(dict(VALID, **{key: value}))


@pytest.mark.parametrize(
    "script, args, row",
    [
        (
            "spectrum_table.py",
            ["--n", "2..4", "--k", "2..3"],
            "  4   3     20  dim 11   {1: 2, 2: 3, 4: 3}",
        ),
        (
            "flatness_scan.py",
            ["--max-n", "4", "--max-k", "3"],
            "distinct     4   2      6    2    1    2      2",
        ),
    ],
)
def test_script_runs_from_the_package_root(capsys, monkeypatch, script, args, row):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert row in capsys.readouterr().out.splitlines()
