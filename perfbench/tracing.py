"""In-memory span tracing of dynspan's public functions, from outside src/.

`Tracer.install()` replaces each traced function with a wrapper in every
dynspan module namespace that binds it (modules import functions by name,
so patching only the defining module would miss those call sites), and
patches ExactMatrix methods on the class.  Each call records a span
[name, start, end, parent, request, cells, in_bits]; `uninstall()` restores
the originals.  Self time is a span's duration minus its direct children's;
the speed probes of calibrate.py are child spans (calibrate.probe), so
they are charged to no layer.

Rank calls are split by scalar kind into exact.rank_q and exact.rank_cyc and
carry the matrix size (cells) and the largest input numerator or
denominator in bits.  Measuring that size is itself recorded as a
trace.probe child span, so it is not charged to the rank or its callers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import calibrate

# (module, attribute, span name) of the module-level functions traced.
FUNCTIONS = (
    ("dynspan.cli", "document_to_system", "cli.document_to_system"),
    ("dynspan.cli", "analysis_report", "cli.analysis_report"),
    ("dynspan.system", "validate", "system.validate"),
    ("dynspan.system", "orbits", "system.orbits"),
    ("dynspan.families", "multiset_rotation", "families.build"),
    ("dynspan.families", "chain_rowmotion", "families.build"),
    ("dynspan.families", "distinct_multiset_rotation", "families.build"),
    ("dynspan.families", "negation_system", "families.build"),
    ("dynspan.linearize", "presenting_matrix", "linearize.presenting_matrix"),
    ("dynspan.linearize", "zeta_matrix", "linearize.zeta_matrix"),
    ("dynspan.linearize", "invariant_matrix", "linearize.invariant_matrix"),
    ("dynspan.linearize", "invariant_basis", "linearize.invariant_basis"),
    ("dynspan.linearize", "shifted_difference", "linearize.shifted_difference"),
    ("dynspan.linearize", "statistic_report", "linearize.statistic_report"),
    ("dynspan.linearize", "flatness_report", "linearize.flatness_report"),
    ("dynspan.linearize", "coboundary_witness", "linearize.coboundary_witness"),
    ("dynspan.linearize", "extend_products", "linearize.extend_products"),
)
RANK_METHODS = ("rank", "column_basis", "nullspace_basis")


def _in_bits(matrix) -> int:
    num = den = 0
    for row in matrix.entries:
        for v in row:
            for q in getattr(v, "coeffs", (v,)):
                a = abs(q.numerator)
                if a > num:
                    num = a
                if q.denominator > den:
                    den = q.denominator
    return max(num.bit_length(), den.bit_length())


class Tracer:
    """Records spans in memory while installed; one per traced call.

    A span is the list [name, start, end, parent span, request, cells,
    in_bits].  Spans are opened and closed by reference, not by index, and
    the stack is pushed last and popped first, so a signal handler that
    records a span of its own (see calibrate.Speedometer) at any point of
    open() or close() cannot leave a span unclosed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: str = "setup"
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.request, None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        self._stack.pop()
        span[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)

    def call(self, name: str, func, *args, **kwargs):
        span = self.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.close(span)

    def records(self) -> list[list]:
        """The spans with each parent replaced by its index in the list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [name, start, end, None if parent is None else index[id(parent)], *rest]
            for name, start, end, parent, *rest in self.spans
        ]

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_spectrum(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(system, method="galois"):
            span = tracer.open(f"linearize.spectrum_{method}")
            try:
                return func(system, method)
            finally:
                tracer.close(span)

        return wrapper

    def _wrap_rank(self, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(matrix):
            span = tracer.open("exact.rank_cyc" if matrix.is_cyclotomic else "exact.rank_q")
            probe = tracer.open("trace.probe")
            span[5] = matrix.rows * matrix.cols
            span[6] = _in_bits(matrix)
            tracer.close(probe)
            try:
                return func(matrix)
            finally:
                tracer.close(span)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dynspan" and not mod_name.startswith("dynspan."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function that exists in the loaded library."""
        import dynspan.cli  # noqa: F401  (loads every traced module)
        from dynspan.exact import ExactMatrix

        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is not None:
                self._rebind(original, self._wrap(name, original))
        spectrum = getattr(sys.modules["dynspan.linearize"], "spectrum", None)
        if spectrum is not None:
            self._rebind(spectrum, self._wrap_spectrum(spectrum))

        def patch(attr: str, replacement) -> None:
            self._restore.append((ExactMatrix, attr, ExactMatrix.__dict__[attr]))
            setattr(ExactMatrix, attr, replacement)

        from_rows = ExactMatrix.__dict__.get("from_rows")
        if from_rows is not None:
            patch("from_rows", classmethod(self._wrap("exact.from_rows", from_rows.__func__)))
        if "det_cofactor" in ExactMatrix.__dict__:
            patch("det_cofactor", self._wrap("exact.det_cofactor", ExactMatrix.det_cofactor))
        for attr in RANK_METHODS:
            if attr in ExactMatrix.__dict__:
                patch(attr, self._wrap_rank(ExactMatrix.__dict__[attr]))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, cells, max in_bits.

    Inclusive time leaves out the speed probes run inside a span.
    """
    covered = [0.0] * len(spans)
    probed = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
        if name == calibrate.PROBE_SPAN:
            while parent is not None:
                probed[parent] += end - start
                parent = spans[parent][3]
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, request, cells, in_bits) in enumerate(spans):
        t = totals.setdefault(
            name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "cells": 0, "in_bits": 0}
        )
        t["calls"] += 1
        t["incl_s"] += end - start - probed[i]
        t["self_s"] += end - start - covered[i]
        t["cells"] += cells or 0
        t["in_bits"] = max(t["in_bits"], in_bits or 0)
    return totals
