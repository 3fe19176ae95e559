"""Record the golden digests the benchmark checks its outputs against.

    python3 perfbench/record_golden.py

Writes golden.json: the sha256 of the `analyze --output json` report of
every built-in system the ladders use (canonical labelling), of every random
document of the first pass at workloads.DEFAULT_SEED, and of the check list
of every verify-paper block.  Run it only at a commit whose outputs are
trusted; the digests are the byte-identity gate for later changes.
"""

from __future__ import annotations

import json

from worker import import_library

import_library()

import checks  # noqa: E402
import workloads  # noqa: E402
from dynspan import cli, verify  # noqa: E402


def analyze_text(doc_text: str) -> str:
    system = cli.document_to_system(json.loads(doc_text))
    return checks.report_text(cli.analysis_report(system, "both"))


def main() -> None:
    golden: dict = {"builtin": {}, "random": {}, "verify": {}}
    for family, n, k in workloads.LARGE_BUILTINS + tuple(workloads.small_builtins()):
        doc_text = json.dumps(workloads.builtin_document(family, n, k))
        name = workloads.builtin_name(family, n, k)
        golden["builtin"][name] = checks.sha256(analyze_text(doc_text))
    for workload in ("ladder-small", "random-rational"):
        for request in workloads.build_requests(workload, workloads.DEFAULT_SEED, 0):
            if request.builtin is None:
                digest = checks.sha256(analyze_text(request.text))
                golden["random"][checks.sha256(request.text)] = digest
    for block in workloads.VERIFY_BLOCKS:
        results = verify.run_checks(block)
        if not all(r.passed for r in results):
            raise SystemExit(f"block {block} does not pass; refusing to record it")
        golden["verify"][block] = checks.sha256(checks.check_list_text(results))
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
