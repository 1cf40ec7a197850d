"""Machine speed, sampled while the timed calls run.

The benchmark was tuned on a shared 2-vCPU VM. On that VM, other
tenants slow every computation by a share that keeps changing. A
1M-iteration Python loop took between 66 and 114 ms from one second to
the next. Over tens of minutes the fastest census(6) went from 6.3 s to
3.9 s, and longer runs did not narrow the spread.

While a pass runs, a SIGALRM timer times a small fixed plain-Python
loop every TICK_S of wall time. Each operation's latency excludes the
time spent in those ticks. A group of operations taking at least
GROUP_S is then scaled to one reference speed:

    scaled = measured * REFERENCE_S / (mean loop time during the group)

The loop does not touch donlat, so a change to donlat moves scaled
times exactly as it moves measured ones. REFERENCE_S is the median loop
time on that VM, so scaled times read as seconds there. The context
line of every run also carries the unscaled figures.
"""

from __future__ import annotations

import bisect
import signal
import time

import gen

REFERENCE_S = 0.00035
TICK_S = 0.01
GROUP_S = 0.05
_ROWS = gen.oddih_rows(12)


def loop_s() -> float:
    """Seconds taken by the fixed loop: all pairings of 12 plain tuples."""
    t0 = time.perf_counter()
    for a in _ROWS:
        for b in _ROWS:
            gen.dot(a, b)
    return time.perf_counter() - t0


class Sampler:
    """Times loop_s() every TICK_S while active (a context manager).

    `paused` is the total time spent in the ticks, which callers
    subtract from the latencies they measure."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.loops.append(loop_s())
        self.starts.append(t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking work done in [start, end] to the reference
        speed; with no tick inside, the ticks on either side are used."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        loops = self.loops[max(lo - 1, 0):hi + 1] if lo == hi else self.loops[lo:hi]
        if not loops:
            raise RuntimeError("no speed sample: the timer never fired")
        return REFERENCE_S * len(loops) / sum(loops)
