"""Machine-speed probe used to normalise the benchmark's times.

On a shared virtual machine the speed of the same Python code drifts by
±30 % over a few seconds, which would bury any change in the program.  The
probe runs a fixed pure-Python kernel that does the same kind of work as
dynspan (Fraction arithmetic and fraction-free integer elimination) but
does not use it, so changes to the program do not change the probe.

`Speedometer.timed` probes before and after each call and, through
SIGALRM, every PROBE_INTERVAL_S during it, so long calls are sampled too.
The probes' own time is excluded; each stretch of work between two probes
is scaled by REFERENCE_S / (mean of those two probes): seconds at the
reference speed.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Median duration of kernel() on the reference machine (2-core Intel Xeon
# virtual machine at 2.0 GHz, CPython 3.11.7).
REFERENCE_S = 0.0093
PROBE_INTERVAL_S = 0.25
# Name of the tracer span around a probe run inside a timed call.
PROBE_SPAN = "calibrate.probe"


def kernel() -> Fraction:
    """Exact elimination on a fixed 40 x 24 matrix, plus Fraction sums."""
    rows = [
        [Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3) for j in range(24)]
        for i in range(40)
    ]
    work = [[x.numerator * (6 // x.denominator) for x in row] for row in rows]
    prev, r = 1, 0
    for c in range(24):
        p = next((i for i in range(r, 40) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        for i in range(r + 1, 40):
            a = work[i][c]
            work[i] = [(x * piv - a * y) // prev for x, y in zip(work[i], work[r])]
        prev, r = piv, r + 1
    return sum((sum(row, Fraction(0)) for row in rows), Fraction(0))


def probe() -> tuple[float, float]:
    """Start and end (perf_counter) of one run of the kernel, right now."""
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter()


class Speedometer:
    """Times calls in raw seconds and in seconds at reference speed.

    `span`, if given, is called as span(name) -> context manager around
    each in-call probe, so a tracer can keep probe time out of the spans
    it interrupts.  Uses SIGALRM; only one Speedometer may time at once.
    """

    def __init__(self, span=None) -> None:
        self._span = span
        self._inner: list[tuple[float, float]] = []
        gc.collect()
        self._last = sum(e - s for s, e in (probe() for _ in range(3))) / 3

    def scale(self, seconds: float) -> float:
        """Scale a duration that ended just before this Speedometer was made."""
        return seconds * REFERENCE_S / self._last

    def _on_alarm(self, _signum, _frame) -> None:
        if self._span is None:
            self._inner.append(probe())
        else:
            with self._span(PROBE_SPAN):
                self._inner.append(probe())

    def timed(self, func, *args):
        """(func(*args), raw seconds, scaled seconds), probe time excluded."""
        self._inner = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = func(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        inner = [(s, e) for s, e in self._inner if e <= end]
        gc.collect()
        after_start, after_end = probe()
        speeds = [self._last] + [e - s for s, e in inner] + [after_end - after_start]
        self._last = speeds[-1]
        bounds = [start] + [t for pair in inner for t in pair] + [end]
        raw = scaled = 0.0
        for j in range(len(speeds) - 1):
            work = bounds[2 * j + 1] - bounds[2 * j]
            raw += work
            scaled += work * REFERENCE_S * 2 / (speeds[j] + speeds[j + 1])
        return result, raw, scaled
