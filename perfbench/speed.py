"""Machine speed, sampled while the program runs, to scale times by.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within minutes while CPU time stays equal to wall time.  Sampling that
speed between jobs does not follow the drift, but sampling it every few
milliseconds inside the measured process does: a `Sampler` runs the fixed
`reference()` loop on every SIGALRM tick and records how long it took.
A time is then turned into seconds at a fixed reference speed, at which
reference() takes `NOMINAL_S`: it is multiplied by the mean speed over the
samples taken while it ran, NOMINAL_S / duration averaged.  The machine
switches between speeds about 2x apart within seconds, so the samples of a
long interval can come from both; the mean speed over them, unlike their
median duration, weighs each part by the wall time it lasted.

`reference()` closes a fixed word under the Knuth moves, with code of its
own that works like placto's pure-Python kernel (bytes, sets, generators),
because a loop of plain arithmetic does not follow the drift that set-heavy
code sees.  It touches no code of placto, and the cyclic garbage collector
is off while it runs, so the heap of the measured program does not change
its duration.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.02  # wall time between two samples
NOMINAL_S = 400e-6  # one reference() at the reference speed
REFERENCE_WORD = bytes((2, 1, 3, 1, 2, 1, 3))  # a Knuth class of 35 words
NEAREST = 25  # samples a short interval is scaled by

clock = time.perf_counter


def _knuth_moves(word: bytes):
    for i in range(len(word) - 2):
        x, y, z = word[i], word[i + 1], word[i + 2]
        if min(x, y) <= z < max(x, y):
            yield word[:i] + bytes((y, x)) + word[i + 2 :]
        if min(y, z) < x <= max(y, z):
            yield word[: i + 1] + bytes((z, y)) + word[i + 3 :]


def reference() -> int:
    """Size of the Knuth class of REFERENCE_WORD, by breadth-first search."""
    seen = {REFERENCE_WORD}
    frontier = [REFERENCE_WORD]
    while frontier:
        following = []
        for word in frontier:
            for other in _knuth_moves(word):
                if other not in seen:
                    seen.add(other)
                    following.append(other)
        frontier = following
    return len(seen)


def timed_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    reference()
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


def burst(count: int) -> list[float]:
    """Durations of `count` reference loops run back to back."""
    return [timed_reference() for _ in range(count)]


class Sampler:
    """Samples reference() on a wall-clock timer; `spent` is the total time
    taken by the ticks, so that callers can subtract it from what they time."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self.spent = 0.0

    def sample(self) -> None:
        enter = clock()
        self.durations.append(timed_reference())
        self.starts.append(enter)
        self.spent += clock() - enter

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mean_speed(durations) -> float:
    """Mean speed relative to the reference speed over some samples."""
    return statistics.fmean(NOMINAL_S / d for d in durations)


def local_speed(starts, durations, begin: float, end: float) -> float:
    """Mean speed over the samples taken within [begin, end], or, if that
    interval holds fewer than NEAREST samples, over the NEAREST samples
    nearest its middle."""
    lo = bisect.bisect_left(starts, begin)
    hi = bisect.bisect_right(starts, end)
    if hi - lo < NEAREST:
        middle = bisect.bisect_left(starts, (begin + end) / 2)
        lo = max(0, min(middle - NEAREST // 2, len(starts) - NEAREST))
        hi = min(len(starts), lo + NEAREST)
    return mean_speed(durations[lo:hi])
