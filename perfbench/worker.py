"""One pass of a benchmark workload, in a fresh interpreter.

Run by run.py, one process at a time:

    python3 perfbench/worker.py --workload W --seed S --pass P --t0-ns T
        [--trace] [--setup-only]

Set-up is importing dynspan from the checkout's src/ and generating the
pass's documents; its duration is measured from T, the parent's
time.monotonic_ns() just before it started this process.  The pass then
runs closed loop, one request after another, timed by a
calibrate.Speedometer, and prints one JSON line with the raw and
speed-scaled latencies, the failure count and ru_maxrss.  With --trace
the library is traced from before set-up and the spans are written to the
file named in the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "_out"
MAX_PROBLEMS = 5


def import_library() -> None:
    """Import dynspan from this checkout's src/, and from nowhere else."""
    if not (SRC / "dynspan" / "__init__.py").is_file():
        raise SystemExit(f"error: no dynspan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynspan

    if Path(dynspan.__file__).resolve().parent != SRC / "dynspan":
        raise SystemExit(f"error: imported dynspan from {dynspan.__file__}")


def run_request(request, golden: dict, meter, tracer=None) -> tuple[float, float, list[str]]:
    """Time one request from document text to report text; check its output.

    Returns raw seconds, seconds scaled to reference speed, and the problems.
    """
    from dynspan import cli, verify

    import checks

    call = tracer.call if tracer is not None else (lambda _name, f, *a: f(*a))

    def analyze() -> str:
        system = cli.document_to_system(json.loads(request.text))
        report = cli.analysis_report(system, "both")
        return call("cli.serialize", checks.report_text, report)

    try:
        if request.kind == "verify":
            results, raw, scaled = meter.timed(
                call, f"verify.{request.block}", verify.run_checks, request.block
            )
            return raw, scaled, checks.verify_problems(request.block, results, golden)
        text, raw, scaled = meter.timed(analyze)
        return raw, scaled, checks.analysis_problems(request, text, golden)
    except Exception as exc:  # a request that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return 0.0, 0.0, [f"{request.key}: raised {type(exc).__name__}: {exc}"]


def run_pass(requests, golden: dict, tracer=None, meter=None) -> dict:
    """Send every request closed loop; return latencies and failures.

    latencies are raw seconds; scaled are the same requests in seconds at
    reference speed (see calibrate.py).
    """
    if meter is None:
        meter = calibrate.Speedometer(tracer.span if tracer is not None else None)
    latencies = []
    scaled = []
    failed = 0
    problems: list[str] = []
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = f"{i}:{request.key}"
        raw, norm, found = run_request(request, golden, meter, tracer)
        if found:
            failed += 1
            problems.extend(found[: MAX_PROBLEMS - len(problems)])
        else:
            latencies.append(raw)
            scaled.append(norm)
    return {
        "attempted": len(requests),
        "failed": failed,
        "latencies": latencies,
        "scaled": scaled,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_library()
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    requests = workloads.build_requests(args.workload, args.seed, args.pass_index)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    meter = calibrate.Speedometer(tracer.span if tracer is not None else None)
    result: dict = {"setup_s": setup_s, "setup_scaled": meter.scale(setup_s)}
    if not args.setup_only:
        result.update(run_pass(requests, checks.load_golden(), tracer, meter))
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-p{args.pass_index}.jsonl"
        tracer.write(path)
        result["spans"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
