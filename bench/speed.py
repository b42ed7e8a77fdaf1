"""The machine's momentary speed, sampled while a pass runs.

On a shared machine the same exact computation can take 1.5-2x longer for
tens of seconds at a time, and process CPU time stretches with wall time, so
neither tells slow code from a slow machine.  A timer signal therefore runs a
short fixed reference loop (exact Fraction arithmetic and dict writes, the
mix qhaar's inner loops run) every INTERVAL_S seconds, in the benchmark's own
thread, and records how long it took.

A stretch of wall time is rescaled by REFERENCE_S times the mean reference
speed (1 / loop time) over the samples inside it: the time the same work
would take on the machine at its idle speed.  Using the mean speed, not the
mean loop time, gives a sample slowed by an interruption little weight.
The loop costs about 2% of the pass in both traced and untraced runs.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# the reference loop's time on the 2-core machine the benchmark was defined
# on, at its idle speed; it only sets the scale of the rescaled times
REFERENCE_S = 3.2e-4


def reference_loop() -> float:
    clock = time.perf_counter
    start = clock()
    acc = Fraction(0)
    table = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table[(i, i % 7)] = acc
    return clock() - start


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), reference_loop()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> tuple[float, int]:
        """REFERENCE_S times the mean reference speed between two moments,
        and the number of samples it rests on (one is taken if none fell
        inside)."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            inside = [reference_loop()]
        return REFERENCE_S * sum(1.0 / d for d in inside) / len(inside), len(inside)
