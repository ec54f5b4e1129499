"""Machine-speed calibration, so that times read at one reference speed.

The benchmark runs on a few cores of a shared host.  Each core switches,
every second or so, between a fast state and one nearly twice as slow, and
a run of tens of seconds can fall mostly in either; its times then differ
by a third whatever the program does.  So the benchmark also times two
fixed pieces of work that do not touch gpflab, between the program's calls:
interpreter work (dict and integer operations) and numpy array work (a
running sum, a gather and a sort over 8 MB).  The slow state does not slow
both pieces alike, nor any piece of gpflab's work exactly like either, so a
calibration's slowdown mixes the two: ``INTERP_SHARE * interp /
INTERP_REF_S + (1 - INTERP_SHARE) * array / ARRAY_REF_S``.

A call's time integrates the core's state over the call; the calibrations
sample that state between calls.  Over a whole run both see the same mix of
states, so a time is reported as its mean over the run divided by the mean
slowdown of the run's calibrations: it reads as it would at the speed at
which the two pieces take their reference times.  A faster program reads
faster at any machine speed; a run that falls in a slow stretch reads the
same.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# times of the two pieces at the reference speed, in seconds: about their
# fast-state times on a 2-vCPU x86-64 host with CPython 3.11 and numpy 2
INTERP_REF_S = 0.012
ARRAY_REF_S = 0.009

# the weight of the interpreter piece in a slowdown: the mix that took the
# most drift out of the times of all three workloads on a 2-vCPU host
INTERP_SHARE = 0.7

# a calibration is taken after the calls of at least this many seconds
EVERY_S = 0.25

# more than the caches hold, so that the array piece follows the state of
# memory bandwidth as well as that of the core
_VALUES = np.random.default_rng(1).integers(0, 1 << 30, size=1 << 20)
_INDEX = np.random.default_rng(2).integers(0, 1 << 20, size=1 << 18)


def _interp() -> int:
    table, acc = {}, 0
    for i in range(40000):
        table[i & 1023] = acc
        acc += (i * i) % 7 + table.get((i * 3) & 1023, 0) % 3
    return acc


def _array() -> int:
    run = np.cumsum(_VALUES)
    picked = _VALUES[_INDEX]
    low = np.sort(_VALUES[: 1 << 17])
    return int(run[-1] + picked.sum() + low[0])


def measure() -> tuple[float, float]:
    """Seconds the interpreter piece and the array piece take now."""
    t0 = perf_counter()
    _interp()
    t1 = perf_counter()
    _array()
    t2 = perf_counter()
    return t1 - t0, t2 - t1


def mean_slowdown(marks) -> float:
    """The mean slowdown against the reference speed of the calibrations
    ``marks``."""
    return statistics.fmean(INTERP_SHARE * interp / INTERP_REF_S
                            + (1.0 - INTERP_SHARE) * array / ARRAY_REF_S
                            for interp, array in marks)


class Marks:
    """Calibrations taken between calls: one at the start, then one each
    time the calls since the last add up to ``EVERY_S``."""

    def __init__(self):
        measure()  # first touch of the arrays and the loop's code
        self.marks = [measure()]
        self._since = 0.0

    def tick(self, latency_s: float) -> None:
        self._since += latency_s
        if self._since >= EVERY_S:
            self.marks.append(measure())
            self._since = 0.0
