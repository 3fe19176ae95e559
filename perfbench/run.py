"""dynspan benchmark: closed-loop `analyze`-shaped requests, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of the workload (see README.md), each in a fresh interpreter
started by worker.py, one at a time, until another pass would exceed S
seconds (at least one pass; with --trace 1 at least one untraced and one
traced).  Prints every metric by name and unit, then, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from the traced passes, averaged per pass, plus the tracing
overhead.  Exits 2 without a result when dynspan's sources are missing or a
pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

SELF_LAYERS = (
    "cli.document_to_system",
    "cli.serialize",
    "system.validate",
    "system.orbits",
    "families.build",
    "linearize.presenting_matrix",
    "linearize.spectrum_galois",
    "linearize.spectrum_cyclotomic",
    "linearize.zeta_matrix",
    "linearize.invariant_matrix",
    "linearize.invariant_basis",
    "linearize.shifted_difference",
    "linearize.statistic_report",
    "linearize.flatness_report",
    "linearize.coboundary_witness",
    "linearize.extend_products",
    "exact.from_rows",
    "exact.det_cofactor",
    "exact.rank_q",
    "exact.rank_cyc",
)
SIZED_LAYERS = ("exact.rank_q", "exact.rank_cyc")
VERIFY_BLOCKS = (
    "rotation-two",
    "rotation-general",
    "chain",
    "distinct",
    "coboundary",
    "nesw",
    "lyness",
    "lift",
    "products",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.analysis_report.s": "s", "cli.analysis_report.calls": "count"}
    for layer in SELF_LAYERS:
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        if layer in SIZED_LAYERS:
            units[f"{layer}.cells"] = "count"
            units[f"{layer}.in_bits"] = "bits"
    for block in VERIFY_BLOCKS:
        units[f"verify.{block}.s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def latency_percentiles(samples: list[float]) -> dict[str, float]:
    """p50 always; p90 only with at least 100 samples (10 beyond it)."""
    out = {"p50": statistics.median(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return out


class PassError(Exception):
    """A worker failed to run or to report; the run has no result."""


def run_worker(args, pass_index: int, trace: bool, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass", str(pass_index),
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd + ["--t0-ns", str(t0)], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"pass {pass_index} exceeded the {DEADLINE_S:.0f} s deadline")
    wall = (time.monotonic_ns() - t0) / 1e9
    if proc.returncode != 0:
        raise PassError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise PassError("worker printed no result")
    result = json.loads(lines[-1])
    result["wall"] = wall
    result["trace"] = trace
    return result


def run_passes(args, deadline: float) -> list[dict]:
    passes: list[dict] = []
    spent = 0.0
    while True:
        trace = bool(args.trace) and len(passes) % 2 == 1
        kinds = {p["trace"] for p in passes}
        need_more = not passes or (args.trace and len(kinds) < 2)
        if not need_more:
            estimate = spent / len(passes)
            if spent + estimate > args.seconds:
                return passes
        result = run_worker(args, len(passes), trace, False, deadline)
        spent += result["wall"]
        passes.append(result)


def pass_wall(p: dict) -> float:
    """Speed-scaled seconds of all requests of one pass."""
    return sum(p["scaled"])


def end_to_end(passes: list[dict], setup: list[float]) -> tuple[dict, dict, int]:
    """End-to-end metrics, the latency percentiles and their sample count."""
    samples = [t for p in passes for t in p["scaled"]]
    pct = latency_percentiles(samples) if samples else {"p50": 0.0}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(pass_wall(p) for p in passes), "s"),
        "req_p50_ms": (pct["p50"] * 1e3, "ms"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB"),
    }, pct, len(samples)


def per_layer(passes: list[dict]) -> dict:
    """Per-layer metrics, as the mean per traced pass (in_bits: the maximum)."""
    import tracing

    traced = [tracing.layer_totals(tracing.read_spans(p["spans"])) for p in passes if p["trace"]]
    overhead = statistics.median(
        pass_wall(p) for p in passes if p["trace"]
    ) - statistics.median(pass_wall(p) for p in passes if not p["trace"])
    out = {}
    for name, unit in layer_metric_units().items():
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            value = overhead
        elif field == "in_bits":
            value = max(t.get(layer, {}).get("in_bits", 0) for t in traced)
        else:
            key = {"s": "self_s", "calls": "calls", "cells": "cells"}[field]
            if name == "cli.analysis_report.s":
                key = "incl_s"
            value = sum(t.get(layer, {}).get(key, 0) for t in traced) / len(traced)
            if unit == "count" and value == int(value):
                value = int(value)
        out[name] = (value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dynspan" / "__init__.py").is_file():
        print(f"error: dynspan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        passes = run_passes(args, deadline)
        setup = [p["setup_scaled"] for p in passes if not p["trace"]]
        while not args.trace and len(setup) < SETUP_SAMPLES:
            extra = run_worker(args, len(passes) + len(setup), False, True, deadline)
            setup.append(extra["setup_scaled"])
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for i, p in enumerate(passes):
        for problem in p["problems"]:
            print(f"FAILED: {problem}")
        print(
            f"pass {i}{' traced' if p['trace'] else ''}:"
            f" set-up {p['setup_s']:.4f} s raw, {p['setup_scaled']:.4f} s scaled;"
            f" requests {sum(p['latencies']):.4f} s raw, {pass_wall(p):.4f} s scaled"
        )
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
        f"  requests {attempted}  failed {failed}"
    )
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics, pct, count = end_to_end(passes, setup)
        p90 = f"{pct['p90'] * 1e3:.3f} ms" if "p90" in pct else "not reported (< 100 samples)"
        print(f"  req_p90_ms {p90}  ({count} samples)")
        print(f"  fail_ratio {failed / attempted:.4f}  ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
