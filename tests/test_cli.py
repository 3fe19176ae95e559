import io
import json

import pytest

from dynspan.cli import main


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

    def test_perturbed_matrix_is_caught(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-paper", "--only", "lyness", "--perturb-lyness"
        )
        assert code == 1
        assert "FAIL" in out
        assert "matrix order 5" in out

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
