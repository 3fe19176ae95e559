"""Tests of the benchmark itself: inputs, checks, percentiles and tracing.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import checks
import run
import tracing
import worker
import workloads
from dynspan import cli, linearize, system, verify

ROOT = Path(__file__).resolve().parents[2]

# Spans each workload must record at least once; a zero means the tracer
# lost a call site or the workload stopped reaching that layer.
PREDICTED = {
    "ladder-large": (
        "cli.document_to_system",
        "cli.analysis_report",
        "cli.serialize",
        "linearize.spectrum_galois",
        "linearize.spectrum_cyclotomic",
        "linearize.zeta_matrix",
        "exact.rank_q",
        "exact.rank_cyc",
    ),
    "ladder-small": (
        "system.validate",
        "linearize.presenting_matrix",
        "linearize.invariant_basis",
        "linearize.statistic_report",
        "linearize.flatness_report",
        "exact.from_rows",
    ),
    "random-rational": (
        "linearize.zeta_matrix",
        "linearize.shifted_difference",
        "exact.rank_q",
        "exact.rank_cyc",
    ),
    "verify-paper": (
        "exact.det_cofactor",
        "linearize.coboundary_witness",
        "linearize.extend_products",
        "families.build",
        "verify.nesw",
        "verify.lift",
        "verify.lyness",
        "verify.coboundary",
    ),
}
REQUEST_LIMIT = {"ladder-large": 2, "ladder-small": 12, "random-rational": 12, "verify-paper": 9}


def traced_totals(workload: str, limit: int) -> tuple[dict, dict]:
    with tracing.Tracer() as tracer:
        requests = workloads.build_requests(workload, 5, 0)[:limit]
        result = worker.run_pass(requests, checks.load_golden(), tracer)
    return tracing.layer_totals(tracer.records()), result


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_documents(workload):
    def fingerprint(seed, pass_index):
        return [
            (r.kind, r.key, r.text, r.block, r.builtin, r.sigma)
            for r in workloads.build_requests(workload, seed, pass_index)
        ]

    assert fingerprint(7, 0) == fingerprint(7, 0)
    if workload != "verify-paper":
        assert fingerprint(7, 0) != fingerprint(8, 0)
        texts = [t for p in range(3) for _, _, t, *_ in fingerprint(7, p)]
        assert len(set(texts)) == len(texts), "a document repeats within a run"


def test_ladder_sizes():
    assert len(workloads.small_builtins()) == 78
    assert len(workloads.build_requests("ladder-small", 1, 0)) >= 100
    assert len(workloads.build_requests("random-rational", 1, 0)) >= 100
    assert "structural" not in workloads.VERIFY_BLOCKS


def test_relabelled_builtin_maps_back_to_golden():
    requests = workloads.build_requests("ladder-small", 3, 0)
    result = worker.run_pass(requests[:10], checks.load_golden())
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == 10


def _corrupt(monkeypatch, edit):
    original = cli.analysis_report

    def corrupted(sys_, method):
        report = original(sys_, method)
        edit(report)
        return report

    monkeypatch.setattr(cli, "analysis_report", corrupted)


def _swap_basis(report):
    basis = report["invariant_basis"]
    if len(basis) > 1:
        basis[0], basis[1] = basis[1], basis[0]
    else:
        basis.append(list(basis[0]))


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(dim_V=r["dim_V"] + 1),
        lambda r: r["homomesies"][0].update(c="1/7"),
        _swap_basis,
        lambda r: r.pop("flatness"),
    ],
    ids=["dim_V", "homomesy", "basis-order", "missing-key"],
)
def test_corrupted_report_counts_as_failure(monkeypatch, edit):
    _corrupt(monkeypatch, edit)
    requests = [
        r for r in workloads.build_requests("ladder-small", 3, 0) if r.builtin
    ][:4]
    result = worker.run_pass(requests, checks.load_golden())
    assert result["attempted"] == 4
    assert result["failed"] == 4
    assert result["latencies"] == []


def test_raising_request_counts_as_failure(monkeypatch):
    def boom(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "analysis_report", boom)
    requests = workloads.build_requests("random-rational", 3, 0)[:3]
    result = worker.run_pass(requests, checks.load_golden())
    assert result["failed"] == 3


def test_failed_check_result_counts_as_failure(monkeypatch):
    original = verify.run_checks

    def one_wrong(only=None):
        results = original(only)
        return [dataclasses.replace(results[0], passed=False)] + results[1:]

    monkeypatch.setattr(verify, "run_checks", one_wrong)
    request = workloads.Request("verify", "distinct", block="distinct")
    result = worker.run_pass([request], checks.load_golden())
    assert result["failed"] == 1


def test_p90_only_with_100_samples():
    assert "p90" not in run.latency_percentiles([float(i) for i in range(99)])
    pct = run.latency_percentiles([float(i) for i in range(100)])
    assert pct["p50"] == 49.5
    assert 88.0 < pct["p90"] < 90.0


def test_speedometer_excludes_its_probes():
    meter = calibrate.Speedometer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, raw, scaled = meter.timed(busy, 0.6)
    assert result == "done"
    # the busy loop ends 0.6 s of wall time after it starts, and the probes
    # that ran inside it (every 0.25 s) are not counted
    assert 0.3 < raw < 0.6 - calibrate.REFERENCE_S / 10
    assert scaled > 0


def test_tracer_patches_every_binding():
    originals = {
        "validate": system.validate,
        "orbits": system.orbits,
        "presenting_matrix": linearize.presenting_matrix,
        "spectrum": linearize.spectrum,
    }
    for module, attr, _name in tracing.FUNCTIONS:
        assert hasattr(sys.modules[module], attr), f"{module}.{attr} is gone"
    with tracing.Tracer():
        for module in (linearize, cli, verify):
            for attr, original in originals.items():
                if attr in vars(module):
                    assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    for module in (linearize, cli, verify):
        for attr, original in originals.items():
            if attr in vars(module):
                assert getattr(module, attr) is original


def test_self_time_excludes_children_and_inclusive_time_excludes_probes():
    spans = [
        ["a", 0.0, 10.0, None, "r", None, None],
        ["b", 1.0, 4.0, 0, "r", None, None],
        ["c", 2.0, 3.0, 1, "r", None, None],
        ["b", 5.0, 6.0, 0, "r", None, None],
        [calibrate.PROBE_SPAN, 2.5, 2.75, 2, "r", None, None],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["a"]["self_s"] == 6.0 and totals["a"]["incl_s"] == 9.75
    assert totals["b"]["self_s"] == 3.0 and totals["b"]["calls"] == 2
    assert totals["c"]["self_s"] == 0.75 and totals["c"]["incl_s"] == 0.75


@pytest.mark.parametrize("workload", sorted(PREDICTED))
def test_predicted_spans_record_calls(workload):
    totals, result = traced_totals(workload, REQUEST_LIMIT[workload])
    assert result["failed"] == 0, result["problems"]
    missing = [name for name in PREDICTED[workload] if name not in totals]
    assert not missing, f"zero calls on {workload}: {missing}"
    if workload == "verify-paper":
        assert "cli.analysis_report" not in totals
    else:
        assert "exact.det_cofactor" not in totals
        assert "verify.nesw" not in totals


def test_call_counts_per_analysis_report():
    totals, _ = traced_totals("ladder-small", 12)
    calls = totals["cli.analysis_report"]["calls"]
    assert calls == 12
    assert totals["linearize.spectrum_galois"]["calls"] == 2 * calls
    assert totals["linearize.presenting_matrix"]["calls"] == 3 * calls
    assert totals["system.validate"]["calls"] == (7 + 1) * calls
    assert totals["cli.document_to_system"]["calls"] == calls


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.layer_metric_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(run.layer_metric_units().values())
    passes = [{"latencies": [0.5, 1.5], "scaled": [0.5, 1.5], "rss_kb": 2048}]
    metrics, _pct, _count = run.end_to_end(passes, [0.25])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_v, unit) in metrics.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)
    assert run.VERIFY_BLOCKS == workloads.VERIFY_BLOCKS


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "_out"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
