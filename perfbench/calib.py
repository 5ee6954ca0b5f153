"""Machine-speed calibration for the end-to-end timings.

The virtual machines this benchmark was written on change speed by up to a
factor of 1.9 within minutes and by tens of percent within a second, per
vCPU: a fixed pure-Python loop timed every 0.1 s for a minute took 0.07 to
0.18 s.  Raw wall times of one program then differ between runs by more
than any useful regression bound.  So every untraced worker times a fixed
calibration chunk every 50 ms from a SIGALRM handler, inside the work
itself, and the benchmark reports times scaled to a reference speed:

    reported = (measured wall time - sampling time) * mean(REFERENCE_S / chunk time)

over the samples taken during the operation.  The chunk exercises what the
program's hot paths do (dicts keyed by tuples, int and Fraction
arithmetic), imports nothing from the program, and so cannot be sped up by
a change to it.  Sampling costs about 2 % of a run.  On a 2-core Xeon VM,
four catalog-cold runs of one seed spread 0.011 scaled against 0.110
unscaled (IQR over median of latency_p50_s); calibrations taken before
and after each multi-second operation, or on the other vCPU, did not
track the change.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# About the chunk time on the machine the benchmark was written on, in a
# fast phase; reported times are seconds at that speed.
REFERENCE_S = 0.001
REPEATS = 3


def _chunk():
    table = {}
    acc = Fraction(0)
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * 31 % 1009
        if i % 50 == 0:
            acc += Fraction(i, 7)
    return len(table), acc


def calibrate() -> float:
    """Median time of REPEATS calibration chunks, in seconds.  The garbage
    collector is off meanwhile, so that the caller's heap does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            _chunk()
            times.append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def factor(chunk_s: float) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REFERENCE_S / chunk_s


class Sampler:
    """Times one calibration chunk every INTERVAL_S of wall time from a
    SIGALRM handler, so that the samples fall inside the work they
    calibrate: the machine's speed changes within a second, and differs
    between the two vCPUs, so calibrations taken before and after a
    multi-second operation, or beside it, miss most of the change."""

    INTERVAL_S = 0.05

    def __init__(self):
        self.starts: list = []   # perf_counter() at each sample's start
        self.costs: list = []    # seconds each sample took
        self.factors: list = []  # speed factor each sample measured

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _tick(self, *_):
        t0 = perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            _chunk()
        finally:
            if was_enabled:
                gc.enable()
        cost = perf_counter() - t0
        self.starts.append(t0)
        self.costs.append(cost)
        self.factors.append(factor(cost))

    def stretch(self, t0: float, t1: float) -> tuple:
        """(speed factor, sampling cost) of the interval [t0, t1]: the mean
        factor of the samples taken in it, or of the last one before it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi > lo:
            return (statistics.fmean(self.factors[lo:hi]), sum(self.costs[lo:hi]))
        return self.factors[max(lo - 1, 0)], 0.0
