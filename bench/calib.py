"""Calibrated time: op latencies scaled by the machine's speed at the time.

On a machine shared with other work, the speed of one core drifts by a
fifth or more over seconds to minutes, which swamps the differences a
benchmark must see.  ``calibrate`` is a fixed piece of stdlib work of the
same kind as weilkit's (small Fractions, short lists); its time drifts with
an op's.  ``Sampler`` runs it from a SIGALRM handler every ``PERIOD``
seconds while ops run, so long ops are sampled during their run, not only
at their ends, and subtracts the handler's own time from whatever it
interrupted.

A calibrated duration is ``seconds * REF_S / c``, where ``c`` is the median
calibration time in a window around the interval.  On an idle machine of
this benchmark's reference kind ``c`` is close to ``REF_S``.

Work done in a child process is calibrated differently: samples taken in
this process while a child runs measure the two competing for the machine,
not the child.  ``child_seconds`` times the child against reference children
started just before and after it, which only import stdlib modules, and
scales by ``REF_START_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REF_S = 0.002  # one calibrate() pass on the reference machine, idle
REF_START_S = 0.1  # one reference child on the reference machine, idle
REFERENCE = (
    "import argparse, contextlib, dataclasses, enum, fractions, functools, hashlib, io, "
    "itertools, json, random, re, statistics, typing"
)
PERIOD = 0.1  # seconds between samples
WINDOW = 1.0  # seconds of samples on each side of an interval


def calibrate() -> float:
    """Seconds for one exact elimination of a fixed 8x8 Fraction matrix."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would charge it for the ops' garbage
    start = time.perf_counter()
    n = 8
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def _child(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def child_seconds(code: str, repeats: int) -> list:
    """Calibrated seconds for each of `repeats` fresh interpreters to run
    `code`.  Each is timed against the mean of the reference children
    started just before and just after it."""
    refs = [_child(REFERENCE)]
    out = []
    for _ in range(repeats):
        seconds = _child(code)
        refs.append(_child(REFERENCE))
        out.append(seconds * REF_START_S * 2 / (refs[-2] + refs[-1]))
    return out


class Sampler:
    """Context manager: calibration samples every PERIOD seconds.

    ``spent`` is the total time the handler has taken so far; a caller
    timing an interval subtracts its growth over the interval.
    """

    def __init__(self):
        self.times = []  # sample start times, increasing
        self.cals = []  # calibration seconds per sample
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        cal = calibrate()
        self.times.append(start)
        self.cals.append(cal)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def cal(self, start: float, end: float) -> float:
        """Median calibration in [start - WINDOW, end + WINDOW]."""
        lo = bisect.bisect_left(self.times, start - WINDOW)
        hi = bisect.bisect_right(self.times, end + WINDOW)
        return statistics.median(self.cals[lo:hi] or self.cals)

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds * REF_S / self.cal(start, end)
