import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynspan.cli import MAX_CELLS, CliInputError, document_to_system, main
from dynspan.system import FiniteSystem

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuiltin:
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

    def test_invalid_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2

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

    def test_seed_outside_domain_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "lyness", "[1,0,0,0,0]", "--seed", "0,1")
        assert code == 2
        assert "domain" in err


class TestVerifyCommand:
    def test_fast_block_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--only", "distinct")
        assert code == 0
        assert "pass" in out
        assert "FAIL" not in out

    def test_perturbed_matrix_is_caught(self, capsys, monkeypatch):
        from dynspan import verify
        from dynspan.exact import ExactMatrix
        from dynspan.lyness import lyness_matrix

        rows = [list(r) for r in lyness_matrix().entries]
        rows[0][0] += 1
        corrupted = ExactMatrix.from_rows(rows)
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


class TestClosedStdout:
    """A reader that closes stdout early gets exit 141 and an empty stderr."""

    def start(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # about 150 KB of JSON, more than a pipe buffers
        argv = ["builtin", "multiset", "--n", "8", "--k", "6"]
        return subprocess.Popen(
            [sys.executable, "-m", "dynspan.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )

    def finish(self, proc):
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_reader_stops_after_one_line(self):
        proc = self.start()
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        self.finish(proc)

    def test_reader_closed_at_once(self):
        proc = self.start()
        proc.stdout.close()
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


LONG = "1" * 4301  # one digit past the default sys.get_int_max_str_digits()


@settings(max_examples=300)
@given(st.sampled_from(sorted(VALID)), json_values)
@example("stats", [[LONG]])
@example("stats", [[f"1/{LONG}"], ["0"], ["1"]])
@example("stats", [[10**4300], [0], [1]])
@example("period", 10**4300)
def test_document_to_system_fuzz_per_key(key, value):
    assert_accepted_or_rejected(dict(VALID, **{key: value}))
