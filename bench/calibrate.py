"""Reporting times at a reference machine speed.

On a shared machine the speed available to one process drifts by tens
of percent within minutes, for all code alike. So the benchmark times a
fixed reference loop next to every measurement and reports times at
reference speed: measured seconds * REF_S / reference seconds, where
the reference seconds are measured around the same interval. The loop
is stdlib-only rational arithmetic (gcd-normalised Fractions) and
small-dict and tuple work, the mix the exact arithmetic of the library
spends its time on, with a working set small enough not to add to the
measured process's peak memory. It does not touch the library, so a
change to the library moves the reported times in full.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# seconds the reference loop takes at reference speed
REF_S = 0.005


def _reference_loop():
    acc = Fraction(0)
    d = {}
    for i in range(1, 350):
        acc = acc + Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        d[(i % 101, acc.denominator % 13)] = acc
    for i in range(7500):
        k = (i % 127, i & 7)
        d[k] = d.get(k, 0) + i * 7 % 13
    return len(d)


def reference_seconds():
    """Wall seconds of one run of the reference loop."""
    t0 = perf_counter()
    _reference_loop()
    return perf_counter() - t0


def at_reference_speed(seconds, ref_seconds):
    return seconds * REF_S / ref_seconds


class StepClock:
    """Time of one operation at reference speed, calibrated by steps.

    start() opens an operation; step() closes one part of it, runs the
    reference loop outside the operation's time, and scales the part by
    the mean of the reference loops on either side of it. An operation
    may call step() between its parts, so that a long operation is
    calibrated at a finer grain than the speed drifts; the caller calls
    it once more at the end. raw and cal are the operation's wall and
    reference-speed seconds; refs collects every reference time,
    starting with the one taken when the clock is made.
    """

    def __init__(self):
        self._before = reference_seconds()
        self.refs = [self._before]
        self.raw = self.cal = 0.0
        self._t0 = None

    def start(self):
        self.raw = self.cal = 0.0
        self._t0 = perf_counter()

    def step(self):
        dt = perf_counter() - self._t0
        after = reference_seconds()
        self.raw += dt
        self.cal += at_reference_speed(dt, (self._before + after) / 2)
        self.refs.append(after)
        self._before = after
        self._t0 = perf_counter()
