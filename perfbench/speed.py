"""Machine-speed calibration for the timed rounds.

The sandbox shares its physical cores with other tenants, and its speed
swings by a factor of up to about 2.5 for seconds to tens of seconds at a
time, with no change in the program.  A fixed calibration loop, which shares
no code with grassvar, is therefore timed between the operations of every
round, and each operation's time is scaled by the ratio of the loop's
reference time to its mean time around that operation:

    normalised = measured * CAL_REF_S / mean(loop times in the window)

The window is the operation itself and max(its duration, WINDOW_S) on each
side.  A normalised time reads as the time at the machine's uncontended
speed; a change to grassvar moves it as it moves the measured time, while
the loop, and so the scale, stays the same on both sides of a comparison.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

import numpy as np

# About the loop's uncontended time on the reference machine (2 cores of a
# shared host, Python 3.11, numpy 2.4); a fixed scale, not a measurement.
CAL_REF_S = 0.65e-3
WINDOW_S = 0.05
# After an operation of d seconds, min(MAX_EXTRA, d / EXTRA_EVERY_S) more
# loops, so a long operation has samples on both sides.
EXTRA_EVERY_S = 0.05
MAX_EXTRA = 20

# Fixed pseudo-random matrices, drawn without numpy.random, which grassvar
# does not load and which would add its own memory to `peak_rss_mb`.
_RNG = random.Random(7)
_GF2 = np.array([[_RNG.randrange(2) for _ in range(96)] for _ in range(96)], dtype=np.uint8)
_F3 = np.array([[_RNG.randrange(3) for _ in range(24)] for _ in range(24)], dtype=np.int64)


def calibrate() -> tuple[float, float]:
    """Run the loop once; return (start, duration).  Half of it is
    interpreted dict and tuple arithmetic, like `poly`; half is numpy row
    operations over F_2 and products over F_3, like `fp`.

    The collector is off while the loop runs, and everything the loop
    allocates is freed before it returns, so the loop leaves the collector's
    allocation count as it found it: how many loops a round runs depends on
    the operations' times, and the program's collections, and with them its
    peak memory, must not."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _loop()
    finally:
        if enabled:
            gc.enable()


def _loop() -> tuple[float, float]:
    clock = time.perf_counter
    start = clock()
    acc: dict = {}
    for i in range(1500):
        key = (i % 37, i % 11)
        acc[key] = (acc.get(key, 0) + i * i) % 7
    a = _GF2.copy()
    for i in range(40):
        a[i + 1 :] ^= a[i]
    b = _F3
    for _ in range(15):
        b = (b @ _F3) % 3
    return start, clock() - start


def extra_samples(duration: float) -> int:
    return min(MAX_EXTRA, int(duration / EXTRA_EVERY_S))


def mean_scale(samples: int) -> float:
    """CAL_REF_S over the mean of `samples` loops run now (after two
    unrecorded ones, which warm the loop itself)."""
    for _ in range(2):
        calibrate()
    return CAL_REF_S * samples / sum(calibrate()[1] for _ in range(samples))


def scales(intervals: list[tuple[float, float]], cals: list[tuple[float, float]]) -> list[float]:
    """For each (start, duration), CAL_REF_S over the mean loop time in its
    window.  `cals` is sorted by start; an interval with no sample in its
    window takes the nearest earlier one."""
    starts = [t for t, _ in cals]
    out = []
    for start, duration in intervals:
        w = max(duration, WINDOW_S)
        lo = bisect.bisect_left(starts, start - w)
        hi = bisect.bisect_right(starts, start + duration + w)
        window = [d for _, d in cals[lo:hi]] or [cals[max(0, lo - 1)][1]]
        out.append(CAL_REF_S * len(window) / sum(window))
    return out
